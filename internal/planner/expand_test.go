package planner

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// sameShapeSetup extracts an unminimized pool holding two "pop rdi; ret"
// gadgets (one shape, two addresses) and a "pop rdi; pop rsi; ret" (another
// shape), and returns a search context with the given Candidates cap, the
// node of a seed plan whose only open requirement is rdi = 0 at the
// syscall, and the three producers in that order.
func sameShapeSetup(t *testing.T, candidates int) (*searchCtx, *node, []*gadget.Gadget) {
	t.Helper()
	const base = 0x401000
	r, err := asm.Assemble("pop rdi\nret\npop rdi\nret\npop rdi\npop rsi\nret\nsyscall\n", base)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: base, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	pool := gadget.Extract(bin, gadget.Options{Parallelism: 1})
	at := func(loc uint64) *gadget.Gadget {
		for _, g := range pool.Gadgets {
			if g.Location == loc {
				return g
			}
		}
		t.Fatalf("no gadget at %#x", loc)
		return nil
	}
	cands := []*gadget.Gadget{at(base), at(base + 2), at(base + 4)}
	if gadgetShape(cands[0]) != gadgetShape(cands[1]) || gadgetShape(cands[0]) == gadgetShape(cands[2]) {
		t.Fatalf("shapes %q %q %q: want the first two equal, the third different",
			gadgetShape(cands[0]), gadgetShape(cands[1]), gadgetShape(cands[2]))
	}

	sc := &searchCtx{
		pool:    pool,
		opts:    Options{Candidates: candidates}.withDefaults(),
		cache:   newProviderCache(pool),
		idx:     newCandidateIndex(pool),
		keys:    newKeyInterner(pool),
		visited: make(map[string]bool),
	}
	var tl tally
	seeds, _ := seeds(sc, Goal{Regs: map[isa.Reg]ValueSpec{isa.RDI: ConstSpec(0)}}, &tl)
	if len(seeds) == 0 || len(seeds[0].Open) != 1 {
		t.Fatalf("want a seed with one open requirement, got %d seeds", len(seeds))
	}
	// As Search does: the seed and the candidates are interned before any
	// expansion.
	sc.keys.key(seeds[0])
	for _, g := range cands {
		sc.keys.shapeOf(g)
	}
	return sc, seedNode(seeds[0]), cands
}

// expandNode expands parent in sl as Search does: its plan is
// materialized into the slot's base first.
func expandNode(sc *searchCtx, parent *node, cands []*gadget.Gadget, sl *expandSlot) {
	parent.materialize(&sl.base)
	expand(sc, parent, cands, sc.keys.specOf(sl.base.Open[0].Spec), sl)
}

// TestSameShapeCandidatesYieldOneSuccessor expands a requirement whose
// first two producers have one shape: they build successors with one dedup
// key, so only the first is kept, yet both count against the Candidates
// cap, and at a cap of 2 the distinct third producer is not tried.
func TestSameShapeCandidatesYieldOneSuccessor(t *testing.T) {
	for _, c := range []struct {
		candidates, want int
	}{{2, 1}, {3, 2}} {
		sc, parent, cands := sameShapeSetup(t, c.candidates)
		var sl expandSlot
		expandNode(sc, parent, cands, &sl)
		if len(sl.succs) != c.want {
			t.Fatalf("Candidates %d: %d successors, want %d", c.candidates, len(sl.succs), c.want)
		}
		if got := sl.succs[0].g; got != cands[0] {
			t.Errorf("Candidates %d: first successor uses %v, want %v", c.candidates, got, cands[0])
		}
		for i, succ := range sl.succs {
			var p Plan
			succ.materialize(&p)
			if sl.keys[i] != sc.keys.key(&p) {
				t.Errorf("Candidates %d: successor %d carries a key other than its own", c.candidates, i)
			}
		}
	}
}

// TestDuplicateSuccessorAllocatesNothing expands a requirement whose every
// successor is already visited and checks that the materialization and the
// expansion, in a reused slot, allocate nothing: a successor the merge
// would drop is never recorded.
func TestDuplicateSuccessorAllocatesNothing(t *testing.T) {
	sc, parent, cands := sameShapeSetup(t, 2)
	var sl expandSlot
	expandNode(sc, parent, cands, &sl)
	if len(sl.succs) != 1 {
		t.Fatalf("%d successors, want 1", len(sl.succs))
	}
	sc.visited[sl.keys[0]] = true
	allocs := testing.AllocsPerRun(100, func() {
		expandNode(sc, parent, cands, &sl)
		if len(sl.succs) != 0 {
			t.Fatalf("visited successor kept")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate successors allocated %.1f times per expansion", allocs)
	}
}

// threatPool is the minimized pool of the Obfuscator-LLVM netperf-sim
// build for rv64c, as core.Analyze builds it, where nearly every expansion
// resolves threats (BenchmarkSearchThreats' pool).
func threatPool(t *testing.T) *gadget.Pool {
	t.Helper()
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "rv64c")
	if err != nil {
		t.Fatal(err)
	}
	raw := gadget.Extract(bin, gadget.Options{ISA: bin.ISA, Parallelism: 1})
	pool, _ := subsume.Minimize(raw, subsume.Options{Parallelism: 1})
	return pool
}

// threatSearch is BenchmarkSearchThreats' search at the given worker count.
func threatSearch(pool *gadget.Pool, workers int) *Result {
	return Search(pool, GoalsForISA("rv64c")[0], Options{MaxPlans: 8, MaxNodes: 6000, Parallelism: workers})
}

// samePlan reports whether got is exactly want: every exported slice
// element by element, the ancestor bitsets and the goal step.
func samePlan(got, want *Plan) bool {
	deep := func(a, b any) bool { return reflect.DeepEqual(a, b) }
	return slices.Equal(got.Steps, want.Steps) && slices.Equal(got.Order, want.Order) &&
		slices.EqualFunc(got.Links, want.Links, func(a, b Link) bool { return deep(a, b) }) &&
		slices.EqualFunc(got.Open, want.Open, func(a, b Requirement) bool { return deep(a, b) }) &&
		slices.EqualFunc(got.Demands, want.Demands, func(a, b SlotDemand) bool { return deep(a, b) }) &&
		slices.Equal(got.reach, want.reach) && got.goalStep == want.goalStep
}

// TestKeptNodesMaterializeExactly runs the threat-heavy rv64c search
// serially and with eight workers and checks, for every successor expand
// keeps, that the node it records materializes to exactly the scratch plan
// it was recorded from.
func TestKeptNodesMaterializeExactly(t *testing.T) {
	pool := threatPool(t)
	defer func() { keptHook = nil }()
	var counts []int64
	for _, workers := range []int{1, 8} {
		var kept, bad atomic.Int64
		keptHook = func(succ *node, scratch *Plan) {
			kept.Add(1)
			var got Plan
			succ.materialize(&got)
			if !samePlan(&got, scratch) && bad.Add(1) == 1 {
				t.Errorf("P=%d: node materializes to\n%+v\nwant\n%+v", workers, got, *scratch)
			}
		}
		res := threatSearch(pool, workers)
		if bad.Load() > 0 {
			t.Errorf("P=%d: %d of %d kept nodes materialize to another plan", workers, bad.Load(), kept.Load())
		}
		if kept.Load() < int64(res.Generated) || res.Generated < 1000 {
			t.Errorf("P=%d: %d kept nodes, %d generated: want at least 1000 generated, all of them checked",
				workers, kept.Load(), res.Generated)
		}
		counts = append(counts, kept.Load())
	}
	if counts[0] != counts[1] {
		t.Errorf("kept %d nodes at P=1, %d at P=8", counts[0], counts[1])
	}
}

// TestSearchBytesPerSuccessor pins what the threat-heavy rv64c search
// allocates per generated successor at P=1 (Go 1.24, amd64): 2 790 bytes
// (22.6 MB over 8 092 successors) when every kept successor was a full
// copy of its plan, 800 (6.5 MB) since a frontier node holds only what its
// expansion added. The bound fails the full copy with margin on both sides.
func TestSearchBytesPerSuccessor(t *testing.T) {
	pool := threatPool(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := threatSearch(pool, 1)
	runtime.ReadMemStats(&after)
	perSucc := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Generated)
	t.Logf("%d bytes over %d successors: %.0f per successor", after.TotalAlloc-before.TotalAlloc, res.Generated, perSucc)
	if perSucc > 1500 {
		t.Errorf("search allocated %.0f bytes per generated successor, want at most 1500", perSucc)
	}
}
