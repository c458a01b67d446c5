package solver

import (
	"math/rand"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
)

func TestBasicSat(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	f := b.Eq(b.Add(x, b.Const(1, 64)), b.Const(2, 64))
	s := Default()
	r, env := s.Check(f)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	if env["x"] != 1 {
		t.Errorf("model x = %#x, want 1", env["x"])
	}
	// Model must actually satisfy the formula.
	ok, err := expr.EvalBool(f, env)
	if err != nil || !ok {
		t.Errorf("model does not satisfy formula: %v %v", ok, err)
	}
}

func TestBasicUnsat(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	s := Default()
	// x + 1 == x is unsatisfiable.
	f := b.Eq(b.Add(x, b.Const(1, 64)), x)
	if r, _ := s.Check(f); r != Unsat {
		t.Errorf("x+1==x: %v, want unsat", r)
	}
	// x < x is unsatisfiable (already folded by the builder).
	if r, _ := s.Check(b.Ult(x, x)); r != Unsat {
		t.Error("x<x not unsat")
	}
	// Conjunction x==3 && x==4.
	r, _ := s.Check(b.Eq(x, b.Const(3, 64)), b.Eq(x, b.Const(4, 64)))
	if r != Unsat {
		t.Errorf("x==3 && x==4: %v", r)
	}
}

func TestMultiVariableModel(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	f := b.BAnd(
		b.Eq(b.Add(x, y), b.Const(10, 8)),
		b.Eq(b.Mul(x, y), b.Const(21, 8)),
	)
	s := Default()
	r, env := s.Check(f)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	gotX, gotY := env["x"], env["y"]
	if (gotX+gotY)&0xFF != 10 || (gotX*gotY)&0xFF != 21 {
		t.Errorf("model x=%d y=%d does not solve system", gotX, gotY)
	}
}

func TestObfuscationIdentitiesValid(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	y := b.Var("y", 64)
	s := Default()
	identities := []struct {
		name string
		lhs  *expr.Node
		rhs  *expr.Node
	}{
		{
			"xor = (~a&b)|(a&~b)", // the paper's Sec. II example
			b.Xor(x, y),
			b.Or(b.And(b.Not(x), y), b.And(x, b.Not(y))),
		},
		{
			"add = (a^b) + 2(a&b)",
			b.Add(x, y),
			b.Add(b.Xor(x, y), b.Shl(b.And(x, y), b.Const(1, 64))),
		},
		{
			"sub = a + ~b + 1",
			b.Sub(x, y),
			b.Add(b.Add(x, b.Not(y)), b.Const(1, 64)),
		},
		{
			"neg = ~a + 1",
			b.Neg(x),
			b.Add(b.Not(x), b.Const(1, 64)),
		},
	}
	for _, id := range identities {
		t.Run(id.name, func(t *testing.T) {
			if !s.EquivalentBV(b, id.lhs, id.rhs) {
				t.Errorf("identity does not hold: %s vs %s", id.lhs, id.rhs)
			}
		})
	}
}

func TestNotEquivalent(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	y := b.Var("y", 64)
	s := Default()
	if s.EquivalentBV(b, b.Add(x, y), b.Sub(x, y)) {
		t.Error("add equivalent to sub?")
	}
	if s.EquivalentBV(b, x, y) {
		t.Error("distinct variables equivalent?")
	}
}

func TestImplies(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	s := Default()
	p := b.Eq(x, b.Const(5, 64))
	q := b.Ult(x, b.Const(10, 64))
	if !s.Implies(b, p, q) {
		t.Error("x==5 should imply x<10")
	}
	if s.Implies(b, q, p) {
		t.Error("x<10 should not imply x==5")
	}
	// Implication with the paper's subsumption shape: a looser pre-condition
	// is implied by a tighter one.
	pre1 := b.True()                      // no pre-condition
	pre2 := b.Eq(x, b.Var("rdx_pre", 64)) // rbx == rdx
	if !s.Implies(b, pre2, pre1) {
		t.Error("any pre-condition implies true")
	}
	if s.Implies(b, pre1, pre2) {
		t.Error("true should not imply rbx==rdx")
	}
}

func TestMultiplication(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	s := Default()
	// Factor 143 = 11 * 13 over 16-bit: x * 11 == 143.
	f := b.Eq(b.Mul(x, b.Const(11, 16)), b.Const(143, 16))
	r, env := s.Check(f)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	if (env["x"]*11)&0xFFFF != 143 {
		t.Errorf("model x=%d", env["x"])
	}
	// x*2 == x+x is valid.
	if !s.EquivalentBV(b, b.Mul(x, b.Const(2, 16)), b.Add(x, x)) {
		t.Error("x*2 != x+x")
	}
}

func TestSignedComparison(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	s := Default()
	// Find a value that is negative signed but large unsigned.
	f := b.BAnd(
		b.Slt(x, b.Const(0, 8)),
		b.BNot(b.Ult(x, b.Const(0x80, 8))),
	)
	r, env := s.Check(f)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	if env["x"] < 0x80 {
		t.Errorf("model x=%#x should have sign bit set", env["x"])
	}
}

// Brute-force cross-check: random formulas over two 8-bit variables, solver
// verdict versus exhaustive enumeration. This is the solver's ground-truth
// test.
func TestRandomFormulasVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		b := expr.NewBuilder()
		x := b.Var("x", 8)
		y := b.Var("y", 8)
		f := randomBool(rng, b, []*expr.Node{x, y}, 3)

		want := false
		var witness expr.Env
		for xv := 0; xv < 256 && !want; xv++ {
			for yv := 0; yv < 256; yv++ {
				env := expr.Env{"x": uint64(xv), "y": uint64(yv)}
				ok, err := expr.EvalBool(f, env)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if ok {
					want = true
					witness = env
					break
				}
			}
		}
		_ = witness

		s := Default()
		r, env := s.Check(f)
		if want && r != Sat {
			t.Fatalf("iter %d: formula %s is satisfiable but solver said %v", iter, f, r)
		}
		if !want && r != Unsat {
			t.Fatalf("iter %d: formula %s is unsatisfiable but solver said %v", iter, f, r)
		}
		if r == Sat {
			ok, err := expr.EvalBool(f, fillEnv(env))
			if err != nil || !ok {
				t.Fatalf("iter %d: solver model %v does not satisfy %s", iter, env, f)
			}
		}
	}
}

// fillEnv defaults missing variables to zero (solver may omit variables that
// were simplified away).
func fillEnv(env expr.Env) expr.Env {
	out := expr.Env{"x": 0, "y": 0}
	for k, v := range env {
		out[k] = v
	}
	return out
}

func randomBV(rng *rand.Rand, b *expr.Builder, vars []*expr.Node, depth int) *expr.Node {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.Const(uint64(rng.Intn(256)), 8)
	}
	x := randomBV(rng, b, vars, depth-1)
	y := randomBV(rng, b, vars, depth-1)
	switch rng.Intn(9) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.And(x, y)
	case 4:
		return b.Or(x, y)
	case 5:
		return b.Xor(x, y)
	case 6:
		return b.Not(x)
	case 7:
		return b.Shl(x, b.Const(uint64(rng.Intn(8)), 8))
	default:
		return b.Lshr(x, b.Const(uint64(rng.Intn(8)), 8))
	}
}

func randomBool(rng *rand.Rand, b *expr.Builder, vars []*expr.Node, depth int) *expr.Node {
	if depth == 0 || rng.Intn(3) == 0 {
		x := randomBV(rng, b, vars, 2)
		y := randomBV(rng, b, vars, 2)
		switch rng.Intn(3) {
		case 0:
			return b.Eq(x, y)
		case 1:
			return b.Ult(x, y)
		default:
			return b.Slt(x, y)
		}
	}
	switch rng.Intn(3) {
	case 0:
		return b.BAnd(randomBool(rng, b, vars, depth-1), randomBool(rng, b, vars, depth-1))
	case 1:
		return b.BOr(randomBool(rng, b, vars, depth-1), randomBool(rng, b, vars, depth-1))
	default:
		return b.BNot(randomBool(rng, b, vars, depth-1))
	}
}

func TestShiftsAgainstEval(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	k := b.Var("k", 8)
	s := Default()
	// For every shift kind, the solver must agree with Eval on a sampled
	// constraint: result == Eval(result) under a pinned env is Sat.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		xv := uint64(rng.Intn(256))
		kv := uint64(rng.Intn(8))
		for _, mk := range []func(*expr.Node, *expr.Node) *expr.Node{b.Shl, b.Lshr, b.Ashr} {
			term := mk(x, k)
			want, err := expr.Eval(term, expr.Env{"x": xv, "k": kv})
			if err != nil {
				t.Fatal(err)
			}
			f := b.BAnd(
				b.BAnd(b.Eq(x, b.Const(xv, 8)), b.Eq(k, b.Const(kv, 8))),
				b.Eq(term, b.Const(want, 8)),
			)
			if r, _ := s.Check(f); r != Sat {
				t.Fatalf("shift disagreement at x=%#x k=%d: %s", xv, kv, term)
			}
			// And the wrong value must be Unsat.
			g := b.BAnd(
				b.BAnd(b.Eq(x, b.Const(xv, 8)), b.Eq(k, b.Const(kv, 8))),
				b.Eq(term, b.Const(want^1, 8)),
			)
			if r, _ := s.Check(g); r != Unsat {
				t.Fatalf("shift false value accepted at x=%#x k=%d", xv, kv)
			}
		}
	}
}

func TestUnknownOnBudget(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	// Factoring constraint; hard for a tiny conflict budget.
	f := b.BAnd(
		b.Eq(b.Mul(x, y), b.Const(0x12345677, 32)),
		b.BAnd(b.Ult(b.Const(1, 32), x), b.Ult(b.Const(1, 32), y)),
	)
	s := New(Options{MaxConflicts: 5})
	r, _ := s.Check(f)
	if r == Sat {
		// Extremely unlikely with 5 conflicts, but a model would be fine if
		// genuine; verify it.
		t.Log("solver got lucky; accepting")
		return
	}
	if r != Unknown && r != Unsat {
		t.Errorf("result = %v", r)
	}
}

func TestValid(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	s := Default()
	if !s.Valid(b, b.Eq(b.Xor(x, x), b.Const(0, 64))) {
		t.Error("x^x == 0 should be valid")
	}
	if s.Valid(b, b.Eq(x, b.Const(0, 64))) {
		t.Error("x == 0 should not be valid")
	}
}

func TestEquivalentBool(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 64)
	y := b.Var("y", 64)
	s := Default()
	// De Morgan.
	p := b.BNot(b.BAnd(b.Eq(x, y), b.Ult(x, y)))
	q := b.BOr(b.BNot(b.Eq(x, y)), b.BNot(b.Ult(x, y)))
	if !s.EquivalentBool(b, p, q) {
		t.Error("De Morgan equivalence failed")
	}
	if s.EquivalentBool(b, b.Eq(x, y), b.Ult(x, y)) {
		t.Error("eq equivalent to ult?")
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	s := Default()
	s.Check(b.Eq(x, b.Const(1, 8)))
	s.Check(b.Eq(x, b.Const(2, 8)))
	if s.Queries.Load() != 2 {
		t.Errorf("queries = %d", s.Queries.Load())
	}
}
