package planner

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// sameShapeSetup extracts an unminimized pool holding two "pop rdi; ret"
// gadgets (one shape, two addresses) and a "pop rdi; pop rsi; ret" (another
// shape), and returns a search context with the given Candidates cap, a
// seed plan whose only open requirement is rdi = 0 at the syscall, and the
// three producers in that order.
func sameShapeSetup(t *testing.T, candidates int) (*searchCtx, *Plan, []*gadget.Gadget) {
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
	parent := seeds[0]
	// As Search does: the seed and the candidates are interned before any
	// expansion.
	sc.keys.key(parent)
	for _, g := range cands {
		sc.keys.shapeOf(g)
	}
	return sc, parent, cands
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
		expand(sc, parent, cands, sc.keys.specOf(parent.Open[0].Spec), &sl)
		if len(sl.succs) != c.want {
			t.Fatalf("Candidates %d: %d successors, want %d", c.candidates, len(sl.succs), c.want)
		}
		if got := sl.succs[0].Steps[len(sl.succs[0].Steps)-1].G; got != cands[0] {
			t.Errorf("Candidates %d: first successor uses %v, want %v", c.candidates, got, cands[0])
		}
		for i, succ := range sl.succs {
			if sl.keys[i] != sc.keys.key(succ) {
				t.Errorf("Candidates %d: successor %d carries a key other than its own", c.candidates, i)
			}
		}
	}
}

// TestDuplicateSuccessorAllocatesNothing expands a requirement whose every
// successor is already visited and checks that the expansion, in a reused
// slot, allocates nothing: a successor the merge would drop is never
// copied.
func TestDuplicateSuccessorAllocatesNothing(t *testing.T) {
	sc, parent, cands := sameShapeSetup(t, 2)
	specID := sc.keys.specOf(parent.Open[0].Spec)
	var sl expandSlot
	expand(sc, parent, cands, specID, &sl)
	if len(sl.succs) != 1 {
		t.Fatalf("%d successors, want 1", len(sl.succs))
	}
	sc.visited[sl.keys[0]] = true
	allocs := testing.AllocsPerRun(100, func() {
		expand(sc, parent, cands, specID, &sl)
		if len(sl.succs) != 0 {
			t.Fatalf("visited successor kept")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate successors allocated %.1f times per expansion", allocs)
	}
}
