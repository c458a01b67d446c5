package experiments

import (
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
)

// The shape tests below cover the experiments that only cmd/experiments
// runs. They assert the orderings EXPERIMENTS.md claims, never a timing
// ratio.

func TestTable6Shape(t *testing.T) {
	// SGC finds up to 8 chains per goal; give Gadget-Planner the same
	// per-goal budget so the payload counts compare like with like.
	opts := quickOpts()
	opts.Planner.MaxPlans = 8
	rows, err := Table6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(benchprog.Spec()) * len(Configs()); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	gadgets := map[string]map[string]int{}
	for _, r := range rows {
		if gadgets[r.Benchmark] == nil {
			gadgets[r.Benchmark] = map[string]int{}
		}
		gadgets[r.Benchmark][r.Obf] = r.Gadgets
		// Gadget-Planner uses every gadget class SGC does, and more.
		if r.GP < r.SGC {
			t.Errorf("%s/%s: GP %d payloads < SGC %d", r.Benchmark, r.Obf, r.GP, r.SGC)
		}
	}
	for bench, g := range gadgets {
		if !(g["Tigress"] > g["LLVM-Obf"] && g["LLVM-Obf"] > g["Original"]) {
			t.Errorf("%s: gadgets Tigress %d, LLVM-Obf %d, Original %d; want strictly decreasing",
				bench, g["Tigress"], g["LLVM-Obf"], g["Original"])
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows, err := Table7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	planning := 0
	for _, r := range rows {
		if r.Seconds < 0 || r.AllocMB < 0 {
			t.Errorf("%s/%s: negative cost %.3fs %.1fMB", r.Tool, r.Stage, r.Seconds, r.AllocMB)
		}
		seen[r.Tool+"/"+r.Stage] = true
		if r.Tool == "Gadget-Planner" && strings.HasPrefix(r.Stage, "planning:") {
			planning++
		}
	}
	for _, want := range []string{
		"Angrop/total", "SGC/total",
		"Gadget-Planner/extraction", "Gadget-Planner/subsumption", "Gadget-Planner/total",
	} {
		if !seen[want] {
			t.Errorf("no %s row", want)
		}
	}
	if planning == 0 {
		t.Error("no Gadget-Planner planning:* row")
	}
}

func TestISASurfaceShape(t *testing.T) {
	rows, err := ISASurface(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rv64 := map[string]int{}
	for _, r := range rows {
		if r.ISA == "rv64" {
			rv64[r.Program+"|"+r.Passes] = r.Pool
		}
	}
	pairs := 0
	for _, r := range rows {
		if r.ISA != "rv64c" {
			continue
		}
		pairs++
		// Compressed decoding halves the legal gadget stride.
		if base := rv64[r.Program+"|"+r.Passes]; r.Pool <= base {
			t.Errorf("%s/%q: rv64c pool %d <= rv64 pool %d", r.Program, r.Passes, r.Pool, base)
		}
	}
	if pairs == 0 {
		t.Error("no rv64c rows")
	}
}
