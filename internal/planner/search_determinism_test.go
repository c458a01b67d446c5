package planner_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

var update = flag.Bool("update", false, "rewrite testdata/findall.golden from the current search")

// fingerprint renders a FindAll result byte-for-byte: per goal of the
// backend's syscall ABI, the search counters (the planner part of a served
// result's Canon), the plan signatures in order and the payload bytes.
func fingerprint(isaName string, attacks map[string]*pipeline.Attack) string {
	var sb strings.Builder
	for _, goal := range planner.GoalsForISA(isaName) {
		atk := attacks[goal.Name]
		fmt.Fprintf(&sb, "%s plans=%d payloads=%d\n", goal.Name, len(atk.Plans), len(atk.Payloads))
		fmt.Fprintf(&sb, "  search %s\n", atk.Search.StatsLine())
		for _, p := range atk.Plans {
			fmt.Fprintf(&sb, "  plan %s\n", p.Signature())
		}
		for _, pl := range atk.Payloads {
			fmt.Fprintf(&sb, "  payload %x\n", pl.Bytes)
		}
	}
	return sb.String()
}

// determinismCells are the netperf-sim builds the search is pinned on. The
// x64 cell resolves no threats; on rv64c every gadget links and clobbers the
// return-address register, so threat resolution runs on nearly every
// expansion there. The rv64c cells use the benchmark's node budget.
var determinismCells = []struct {
	obf, isa string
	opts     planner.Options
}{
	{"llvm", "x64", planner.Options{}},
	{"llvm", "rv64c", planner.Options{MaxPlans: 8, MaxNodes: 6000}},
	{"virt", "rv64c", planner.Options{MaxPlans: 8, MaxNodes: 6000}},
}

// TestFindAllDeterminism is the end-to-end acceptance check for the
// planner: planning all three goals on obfuscated netperf-sim builds must
// produce identical search counters, plan signatures and payload bytes at
// every worker count — and match testdata/findall.golden, so a change to the search's internals that
// alters any plan, payload or counter fails here. Regenerate the golden
// with `go test ./internal/planner -run TestFindAllDeterminism -update`.
func TestFindAllDeterminism(t *testing.T) {
	var got strings.Builder
	totalPlans := 0
	for _, c := range determinismCells {
		name := "netperf/" + c.obf + "/" + c.isa
		passes, err := obfuscate.ParseSpec(c.obf)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := benchprog.BuildISA(benchprog.Netperf(), passes, 42, c.isa)
		if err != nil {
			t.Fatal(err)
		}

		var refFP string
		for _, par := range []int{1, 2, 8} {
			attacks := core.Analyze(bin, core.Config{Parallelism: par, Planner: c.opts}).FindAll()
			fp := fingerprint(c.isa, attacks)
			var hits int64
			for _, goal := range planner.GoalsForISA(c.isa) {
				hits += attacks[goal.Name].Search.CacheHits
			}
			if hits == 0 {
				t.Errorf("%s parallelism=%d: runs reported no cache hits", name, par)
			}
			if par == 1 {
				refFP = fp
				for _, goal := range planner.GoalsForISA(c.isa) {
					totalPlans += len(attacks[goal.Name].Plans)
				}
			} else if fp != refFP {
				t.Errorf("%s parallelism=%d: differs from parallelism=1\n--- P=1 ---\n%s--- got ---\n%s",
					name, par, refFP, fp)
			}
		}
		// The block header keeps the "cache=on" label it had when the
		// golden also held cache-off blocks, so the block bytes are unchanged.
		fmt.Fprintf(&got, "== %s cache=on\n%s", name, refFP)
	}
	// Not every goal is reachable on every pool (virtualized rv64c yields
	// none); the contract only bites if something is found.
	if totalPlans == 0 {
		t.Fatal("reference runs found no plans for any goal")
	}

	path := filepath.Join("testdata", "findall.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("FindAll results differ from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.String())
	}
}

// TestNodeBudgetStopsSearch: the node budget is the search's only bound. On
// obfuscated netperf-sim for rv64c the execve search runs out of plans only
// after about 15 000 expansions, so a 1000-node budget must stop it at
// exactly 1000, with the same counters serially and with eight workers.
func TestNodeBudgetStopsSearch(t *testing.T) {
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "rv64c")
	if err != nil {
		t.Fatal(err)
	}
	pool := core.Analyze(bin, core.Config{Parallelism: 1}).Pool
	goal := planner.GoalsForISA("rv64c")[0]
	var lines []string
	for _, workers := range []int{1, 8} {
		res := planner.Search(pool, goal, planner.Options{MaxPlans: 1000, MaxNodes: 1000, Parallelism: workers})
		if res.Expanded != 1000 {
			t.Fatalf("P=%d: expanded=%d plans=%d, want the search stopped by its 1000-node budget",
				workers, res.Expanded, len(res.Plans))
		}
		lines = append(lines, res.StatsLine())
	}
	if lines[0] != lines[1] {
		t.Errorf("counters differ across worker counts\nP=1: %s\nP=8: %s", lines[0], lines[1])
	}
}

// searchSink keeps BenchmarkSearchThreats' result live.
var searchSink *planner.Result

// BenchmarkSearchThreats plans execve on the minimized pool of the
// Obfuscator-LLVM netperf-sim build for rv64c, where nearly every expansion
// resolves threats (BenchmarkSearch's x64 pool has none). Run it with
// `go test ./internal/planner -run xxx -bench SearchThreats -benchmem`.
func BenchmarkSearchThreats(b *testing.B) {
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "rv64c")
	if err != nil {
		b.Fatal(err)
	}
	pool := core.Analyze(bin, core.Config{Parallelism: 1}).Pool
	goal := planner.GoalsForISA("rv64c")[0]
	opts := planner.Options{MaxPlans: 8, MaxNodes: 6000, Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink = planner.Search(pool, goal, opts)
	}
}
