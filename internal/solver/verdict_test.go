package solver

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
)

// TestTriageVerdictsMatchBruteForce is the verdict ground-truth property
// test: for random narrow-width formula DAGs, every verdict API must agree
// with exhaustive enumeration over all environments, both when the query is
// blasted and when it is repeated and served from the verdict cache.
func TestTriageVerdictsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		b := expr.NewBuilder()
		x := b.Var("x", 8)
		y := b.Var("y", 8)
		vars := []*expr.Node{x, y}
		p := randomBool(rng, b, vars, 3)
		q := randomBool(rng, b, vars, 3)

		// Brute-force truths over the full 2^16 environment space,
		// stopping once all three are settled.
		pSat, pValid := false, true
		impliesPQ := true
	scan:
		for xv := 0; xv < 256; xv++ {
			for yv := 0; yv < 256; yv++ {
				env := expr.Env{"x": uint64(xv), "y": uint64(yv)}
				pv, err := expr.EvalBool(p, env)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				qv, err := expr.EvalBool(q, env)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				pSat = pSat || pv
				pValid = pValid && pv
				if pv && !qv {
					impliesPQ = false
				}
				if pSat && !pValid && !impliesPQ {
					break scan
				}
			}
		}

		s := Default()
		for _, pass := range []string{"blast", "cache"} {
			if got := s.Sat(p); got != pSat {
				t.Errorf("iter %d [%s]: Sat(%s) = %v, brute force %v", iter, pass, p, got, pSat)
			}
			if got := s.Valid(b, p); got != pValid {
				t.Errorf("iter %d [%s]: Valid(%s) = %v, brute force %v", iter, pass, p, got, pValid)
			}
			if got := s.Implies(b, p, q); got != impliesPQ {
				t.Errorf("iter %d [%s]: Implies = %v, brute force %v", iter, pass, got, impliesPQ)
			}
		}
	}
}

// TestTriageEquivalenceMatchesBruteForce does the same for bitvector-term
// equivalence, the subsumption equal-post query shape.
func TestTriageEquivalenceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 80; iter++ {
		b := expr.NewBuilder()
		x := b.Var("x", 8)
		y := b.Var("y", 8)
		vars := []*expr.Node{x, y}
		u := randomBV(rng, b, vars, 3)
		v := randomBV(rng, b, vars, 3)

		equal := true
	outer:
		for xv := 0; xv < 256; xv++ {
			for yv := 0; yv < 256; yv++ {
				env := expr.Env{"x": uint64(xv), "y": uint64(yv)}
				uv, err := expr.Eval(u, env)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				vv, err := expr.Eval(v, env)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if uv != vv {
					equal = false
					break outer
				}
			}
		}

		s := Default()
		for _, pass := range []string{"blast", "cache"} {
			if got := s.EquivalentBV(b, u, v); got != equal {
				t.Errorf("iter %d [%s]: EquivalentBV(%s, %s) = %v, brute force %v", iter, pass, u, v, got, equal)
			}
		}
	}
}

// TestTriageCountsTiers checks the counters of the three verdict tiers: a
// query simplification decides is answered without the cache, a first
// non-constant query blasts, and its repeat — even built in a different
// builder — is a cache hit.
func TestTriageCountsTiers(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	y := b.Var("y", 64)
	s := Default()

	// x < x folds to false: Unsat by constant folding alone.
	if s.Sat(b.Ult(x, x)) {
		t.Fatal("x < x satisfiable?")
	}
	if s.Queries.Load() != 1 || s.CacheHits.Load() != 0 || s.Blasted.Load() != 0 {
		t.Errorf("after constant query: queries=%d cached=%d blasted=%d, want 1/0/0",
			s.Queries.Load(), s.CacheHits.Load(), s.Blasted.Load())
	}

	// Distinct variables are not equivalent; deciding so blasts.
	if s.EquivalentBV(b, x, y) {
		t.Fatal("distinct variables equivalent?")
	}
	if s.Blasted.Load() != 1 {
		t.Errorf("after refutable query: blasted=%d, want 1", s.Blasted.Load())
	}

	// A true identity blasts once; its repeat from a fresh builder is a
	// cache hit, not another blast.
	xor := func(b *expr.Builder) bool {
		x, y := b.Var("x", 64), b.Var("y", 64)
		return s.EquivalentBV(b, b.Xor(x, y), b.Or(b.And(b.Not(x), y), b.And(x, b.Not(y))))
	}
	if !xor(b) {
		t.Fatal("xor identity failed")
	}
	if s.Blasted.Load() != 2 || s.CacheHits.Load() != 0 {
		t.Errorf("after identity proof: cached=%d blasted=%d, want 0/2", s.CacheHits.Load(), s.Blasted.Load())
	}
	if !xor(expr.NewBuilder()) {
		t.Fatal("xor identity failed on repeat")
	}
	if s.Queries.Load() != 4 || s.CacheHits.Load() != 1 || s.Blasted.Load() != 2 {
		t.Errorf("after repeat: queries=%d cached=%d blasted=%d, want 4/1/2",
			s.Queries.Load(), s.CacheHits.Load(), s.Blasted.Load())
	}
}

// TestSharedCacheConcurrent issues overlapping verdict queries from many
// goroutines on one Solver, each goroutine in its own order. Every query is
// built in a fresh builder, as subsume builds each bucket's queries: a
// builder orders commutative arguments by node creation order, so one
// builder reused across differently ordered queries could render a query
// under two keys. Every distinct non-constant query must blast exactly once,
// every other non-constant query must be a cache hit, and every verdict must
// be right, whatever the interleaving (run it under -race).
func TestSharedCacheConcurrent(t *testing.T) {
	const (
		distinct   = 24 // non-constant queries: distinct/2 Sat, distinct/2 EquivalentBV
		constant   = 2  // constant-folded queries per round
		rounds     = 3  // each goroutine issues every query this many times
		goroutines = 8
	)
	type query func(s *Solver, b *expr.Builder) bool
	var queries []query
	for i := uint64(0); i < distinct/2; i++ {
		// x + i == 3y: satisfiable.
		queries = append(queries, func(s *Solver, b *expr.Builder) bool {
			x, y := b.Var("x", 16), b.Var("y", 16)
			return s.Sat(b.Eq(b.Add(x, b.Const(i, 16)), b.Mul(y, b.Const(3, 16))))
		})
		// (x+i+1) + y == ((x+i+1) ^ y) + (((x+i+1) & y) << 1): valid.
		queries = append(queries, func(s *Solver, b *expr.Builder) bool {
			x, y := b.Var("x", 16), b.Var("y", 16)
			xi := b.Add(x, b.Const(i+1, 16))
			sum := b.Add(b.Xor(xi, y), b.Shl(b.And(xi, y), b.Const(1, 16)))
			return s.EquivalentBV(b, b.Add(xi, y), sum)
		})
	}
	consts := []query{
		func(s *Solver, b *expr.Builder) bool { return s.Sat(b.True()) },
		func(s *Solver, b *expr.Builder) bool { return !s.Sat(b.False()) },
	}

	s := Default()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(queries)) {
					if !queries[i](s, expr.NewBuilder()) {
						t.Errorf("goroutine %d: query %d answered wrongly", g, i)
					}
				}
				for _, q := range consts {
					if !q(s, expr.NewBuilder()) {
						t.Errorf("goroutine %d: constant query answered wrongly", g)
					}
				}
			}
		}()
	}
	wg.Wait()

	nonConst := int64(goroutines * rounds * distinct)
	if want := nonConst + goroutines*rounds*constant; s.Queries.Load() != want {
		t.Errorf("queries = %d, want %d", s.Queries.Load(), want)
	}
	if s.Blasted.Load() != distinct {
		t.Errorf("blasted = %d, want %d (one per distinct non-constant query)", s.Blasted.Load(), distinct)
	}
	if want := nonConst - distinct; s.CacheHits.Load() != want {
		t.Errorf("cache hits = %d, want %d", s.CacheHits.Load(), want)
	}
}

// TestGateHashConsingShares proves the gate-level memoization shares CNF
// across structurally identical gates from different expr nodes: lowering
// ult(x,y) and slt(x,y) together must cost fewer clauses than the sum of
// lowering them separately (both build the same subtractor).
func TestGateHashConsingShares(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)

	clausesFor := func(nodes ...*expr.Node) int {
		sat := newSAT()
		bl := newBlaster(sat)
		for _, n := range nodes {
			if _, err := bl.boolLit(n); err != nil {
				t.Fatal(err)
			}
		}
		return len(sat.clauses)
	}

	ult := clausesFor(b.Ult(x, y))
	slt := clausesFor(b.Slt(x, y))
	both := clausesFor(b.Ult(x, y), b.Slt(x, y))
	if both >= ult+slt {
		t.Errorf("no sharing: ult=%d slt=%d together=%d", ult, slt, both)
	}
}
