package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
)

// renderPool renders everything downstream consumers can observe about a
// pool: per-gadget location, shape, conditions, and effect summary.
func renderPool(p *gadget.Pool) string {
	var sb strings.Builder
	for _, g := range p.Gadgets {
		fmt.Fprintf(&sb, "%d @%#x len=%d type=%v insts=%d delta=%d end=%d",
			g.ID, g.Location, g.Len, g.JmpType, g.NumInsts(),
			g.Effect.StackDelta, g.Effect.End)
		if g.Effect.NextRIP != nil {
			fmt.Fprintf(&sb, " rip=%s", g.Effect.NextRIP)
		}
		for _, c := range g.Effect.Conds {
			fmt.Fprintf(&sb, " cond=%s", c)
		}
		fmt.Fprintf(&sb, " clob=%v ctrl=%v\n", g.ClobRegs, g.CtrlRegs)
	}
	return sb.String()
}

// The pipeline promises byte-identical results at every worker count: the
// sharded extraction and concurrent subsumption must produce the same pools
// (same gadgets, same rendered conditions, same stats) at Parallelism 1, 2,
// and 8.
func TestAnalysisDeterministicAcrossParallelism(t *testing.T) {
	p := benchprog.Benchmarks()[0]
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		raw, min string
		after    int
		queries  int64
	}
	var base snapshot
	for i, par := range []int{1, 2, 8} {
		a := Analyze(bin, Config{Parallelism: par})
		snap := snapshot{
			raw:     renderPool(a.RawPool),
			min:     renderPool(a.Pool),
			after:   a.SubsumeStats.After,
			queries: a.SubsumeStats.SolverQueries,
		}
		if i == 0 {
			base = snap
			if base.raw == "" || base.min == "" {
				t.Fatal("empty pools at parallelism 1")
			}
			continue
		}
		if snap.raw != base.raw {
			t.Errorf("raw pool differs at parallelism %d:\n%s", par, firstDiff(base.raw, snap.raw))
		}
		if snap.min != base.min {
			t.Errorf("minimized pool differs at parallelism %d:\n%s", par, firstDiff(base.min, snap.min))
		}
		if snap.after != base.after {
			t.Errorf("Stats.After = %d at parallelism %d, want %d", snap.after, par, base.after)
		}
		if snap.queries != base.queries {
			t.Errorf("SolverQueries = %d at parallelism %d, want %d", snap.queries, par, base.queries)
		}
	}
}

// firstDiff reports the first line where two renderings diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  base: %s\n  got:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
