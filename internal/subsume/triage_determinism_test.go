package subsume_test

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// TestTriageDeterminism is the end-to-end acceptance check for solver
// triage: minimizing the obfuscated netperf-sim pool with triage enabled
// must produce a pool byte-identical to the triage-disabled reference, at
// every worker count.
func TestTriageDeterminism(t *testing.T) {
	bin, err := benchprog.Build(benchprog.Netperf(), obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := gadget.Extract(bin, gadget.Options{})

	ref, refStats := subsume.Minimize(pool, subsume.Options{Parallelism: 1, DisableTriage: true})
	refSig := ref.Canon()
	if refStats.EvalRefuted != 0 || refStats.WitnessRefuted != 0 {
		t.Fatalf("triage-disabled run used triage tiers: %+v", refStats)
	}

	for _, par := range []int{1, 2, 8} {
		min, stats := subsume.Minimize(pool, subsume.Options{Parallelism: par})
		if got := min.Canon(); got != refSig {
			t.Errorf("parallelism=%d: triage-on pool differs from triage-off reference (%d vs %d gadgets)",
				par, min.Size(), ref.Size())
		}
		if par == 1 {
			if stats.SolverQueries == 0 {
				t.Fatalf("no solver queries issued: %+v", stats)
			}
			// Acceptance criterion: at least 70% of verdict queries are
			// resolved without bit-blasting. (On this corpus the residual
			// queries constant-fold, so the share is 1.0; T1/T2 refutation
			// behaviour is covered by the solver package tests.)
			if share := stats.TriageShare(); share < 0.7 {
				t.Errorf("triage share %.2f < 0.70 (queries=%d blasted=%d)",
					share, stats.SolverQueries, stats.Blasted)
			}
		}
	}
}
