package planner

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// diversePool assembles a pool with several producer shapes per register so
// searches branch and the provider cache sees varied (gadget, spec) pairs.
const diverseGadgets = classicGadgets + `
    mov rax, rbx
    ret
    pop rbx
    ret
    lea rax, [rbx+1]
    ret
    mov rdi, rax
    ret
    xor rdx, rdx
    ret
    pop rcx
    ret
`

// TestProvidesCacheAgreement is the property check behind the provider
// cache: for random (gadget, register, spec) triples, the memoized
// providesFor must return exactly what a direct provides call computes —
// same result structure, same verdict.
func TestProvidesCacheAgreement(t *testing.T) {
	pool := poolFrom(t, diverseGadgets)
	cache := newProviderCache(pool)
	keys := newKeyInterner(pool)
	rng := rand.New(rand.NewSource(7))

	specs := []ValueSpec{
		ConstSpec(0), ConstSpec(59), ConstSpec(rng.Uint64()),
		PointerSpec([]byte("/bin/sh\x00")), PointerSpec([]byte{byte(rng.Intn(256))}),
		ArbitrarySpec(),
	}
	var tl tally
	checked := 0
	for trial := 0; trial < 500; trial++ {
		g := pool.Gadgets[rng.Intn(len(pool.Gadgets))]
		reg := isa.Reg(rng.Intn(int(isa.NumRegs)))
		spec := specs[rng.Intn(len(specs))]
		if spec.Kind == SpecConst && rng.Intn(2) == 0 {
			spec = ConstSpec(rng.Uint64() >> uint(rng.Intn(64)))
		}

		wantPR, wantOK := provides(g, reg, spec)
		gotPR, gotOK := cache.providesFor(g, reg, spec, keys.specOf(spec), &tl)
		if wantOK != gotOK || !reflect.DeepEqual(wantPR, gotPR) {
			t.Fatalf("gadget %v reg %s spec %s: cached (%v, %v) != direct (%v, %v)",
				g, reg, spec, gotPR, gotOK, wantPR, wantOK)
		}

		wantReqs, wantU := stepEntryReqs(g)
		gotReqs, gotU := cache.stepReqsFor(g, &tl)
		if wantU != gotU || !reflect.DeepEqual(wantReqs, gotReqs) {
			t.Fatalf("gadget %v: cached step reqs (%v, %v) != direct (%v, %v)",
				g, gotReqs, gotU, wantReqs, wantU)
		}
		checked++
	}
	if checked == 0 || tl.lookups == 0 {
		t.Fatal("property loop exercised nothing")
	}
	misses := cache.misses.Load()
	if misses == 0 || tl.lookups <= misses {
		t.Errorf("expected repeated lookups to hit the cache: lookups=%d misses=%d", tl.lookups, misses)
	}
}

// TestCandidateIndexProperty is the property check behind the candidate
// index: for random diversity counts, candidatesFor must return exactly a
// stable full sort of the register's chain-continuing producers (pool
// order) by (uses, planning cost), recomputed from scratch here. The
// comparator is the full sort the index's cached re-rank replaced, kept
// as the test's oracle.
func TestCandidateIndexProperty(t *testing.T) {
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := subsume.Minimize(gadget.Extract(bin, gadget.Options{Parallelism: 1}), subsume.Options{Parallelism: 1})
	less := func(a, b *gadget.Gadget, uses map[int]int) bool {
		if uses[a.ID] != uses[b.ID] {
			return uses[a.ID] < uses[b.ID]
		}
		if len(a.Effect.Conds) != len(b.Effect.Conds) {
			return len(a.Effect.Conds) < len(b.Effect.Conds)
		}
		if len(a.ClobRegs) != len(b.ClobRegs) {
			return len(a.ClobRegs) < len(b.ClobRegs)
		}
		if a.NumInsts() != b.NumInsts() {
			return a.NumInsts() < b.NumInsts()
		}
		return a.Location < b.Location
	}
	want := func(reg isa.Reg, uses map[int]int) []*gadget.Gadget {
		var c []*gadget.Gadget
		for _, g := range pool.ByReg[reg] {
			if g.Effect.End != symex.EndSyscall && g.Effect.StackDelta >= 0 {
				c = append(c, g)
			}
		}
		sort.SliceStable(c, func(i, j int) bool { return less(c[i], c[j], uses) })
		return c
	}
	check := func(trial int, idx *candidateIndex, uses map[int]int) {
		for reg := range pool.ByReg {
			w := want(reg, uses)
			// The second call is served from the per-register re-rank cache.
			for call := 0; call < 2; call++ {
				if got := idx.candidatesFor(reg, uses); !slices.Equal(got, w) {
					t.Fatalf("trial %d reg %s call %d: candidatesFor differs from the full sort", trial, reg, call)
				}
			}
		}
	}

	idx := newCandidateIndex(pool)
	uses := map[int]int{}
	check(-1, idx, uses) // before any plan is accepted: the static order
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		// Grow the counts the way accepted plans do, with an occasional
		// fresh map so rarely and heavily used gadgets both appear.
		if rng.Intn(5) == 0 {
			uses = map[int]int{}
		}
		for n := rng.Intn(20); n >= 0; n-- {
			uses[pool.Gadgets[rng.Intn(len(pool.Gadgets))].ID] += 1 + rng.Intn(3)
		}
		idx.bumpUses()
		check(trial, idx, uses)
	}
}

// BenchmarkSearch measures a full deep search over the diverse pool — the
// planner hot path end to end (seeding, frontier batches, expansion,
// dedup), without payload validation.
func BenchmarkSearch(b *testing.B) {
	r, err := buildPool(diverseGadgets)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{MaxPlans: 1 << 20, Candidates: 32, Parallelism: 1}
	for i := 0; i < b.N; i++ {
		Search(r, ExecveGoal(), opts)
	}
}
