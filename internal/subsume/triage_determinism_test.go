package subsume_test

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// TestTriageDeterminism is the end-to-end check that Minimize is a function
// of its pool alone: over the paper's netperf case study × {original, llvm,
// tigress, virt} × {x64, rv64c}, the minimized pool's Canon() and the
// Stats.String() line — solver counters included — must be identical at
// every worker count and on every repeat. The counters hold still only
// because all workers share one computed-once verdict cache; with a cache
// per worker, the cached/blasted split follows the bucket schedule.
func TestTriageDeterminism(t *testing.T) {
	obfs := []struct {
		name   string
		passes []obfuscate.Pass
	}{
		{"original", nil},
		{"llvm", obfuscate.LLVMObf()},
		{"tigress", obfuscate.Tigress()},
		{"virt", []obfuscate.Pass{&obfuscate.Virtualize{}}},
	}
	var queries int64
	for _, isaName := range []string{"x64", "rv64c"} {
		for _, obf := range obfs {
			bin, err := benchprog.BuildISA(benchprog.Netperf(), obf.passes, 42, isaName)
			if err != nil {
				t.Fatalf("%s/%s: %v", obf.name, isaName, err)
			}
			pool := gadget.Extract(bin, gadget.Options{ISA: isaName})

			ref, refStats := subsume.Minimize(pool, subsume.Options{Parallelism: 1})
			queries += refStats.SolverQueries
			for rep := 0; rep < 3; rep++ {
				for _, par := range []int{1, 2, 8} {
					min, stats := subsume.Minimize(pool, subsume.Options{Parallelism: par})
					if min.Canon() != ref.Canon() {
						t.Errorf("%s/%s P=%d repeat %d: pool differs from the P=1 reference (%d vs %d gadgets)",
							obf.name, isaName, par, rep, min.Size(), ref.Size())
					}
					if stats.String() != refStats.String() {
						t.Errorf("%s/%s P=%d repeat %d: stats\n\t%s\nwant\n\t%s",
							obf.name, isaName, par, rep, stats, refStats)
					}
				}
			}
		}
	}
	if queries == 0 {
		t.Error("no solver queries issued across the matrix")
	}
}
