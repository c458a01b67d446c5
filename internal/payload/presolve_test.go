package payload

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/solver"
)

// draw yields the choices a generated constraint set is made of: from a
// seeded random source in TestPresolveMatchesFullSolve, from fuzz bytes in
// FuzzPresolve.
type draw interface {
	intn(n int) int
	word() uint64
}

type randDraw struct{ r *rand.Rand }

func (d randDraw) intn(n int) int { return d.r.Intn(n) }
func (d randDraw) word() uint64   { return d.r.Uint64() }

// byteDraw reads its choices from data and reads zeros once data runs out.
type byteDraw struct{ data []byte }

func (d *byteDraw) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

func (d *byteDraw) intn(n int) int { return int(d.next()) % n }

func (d *byteDraw) word() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(d.next())
	}
	return v
}

// constraintSet builds a set of controlled constraints over at most 4 cells
// from d's choices: cell == const bindings (sometimes a second, conflicting
// one for the same cell), term == const, unsigned comparisons of terms, and
// negations of all three. It returns the cells and the constraints.
func constraintSet(b *expr.Builder, d draw) ([]*expr.Node, []*expr.Node) {
	cells := make([]*expr.Node, 1+d.intn(4))
	for i := range cells {
		cells[i] = cellVar(b, 8*int64(i))
	}
	constant := func() *expr.Node {
		switch d.intn(4) {
		case 0, 1:
			return b.Const(uint64(d.intn(4)), 64)
		case 2:
			return b.Const(0x401000+8*uint64(d.intn(4)), 64)
		default:
			return b.Const(d.word(), 64)
		}
	}
	var term func(depth int) *expr.Node
	term = func(depth int) *expr.Node {
		if depth == 0 || d.intn(3) == 0 {
			if d.intn(4) == 0 {
				return constant()
			}
			return cells[d.intn(len(cells))]
		}
		x := term(depth - 1)
		switch d.intn(6) {
		case 0:
			return b.Add(x, term(depth-1))
		case 1:
			return b.Sub(x, term(depth-1))
		case 2:
			return b.Xor(x, term(depth-1))
		case 3:
			return b.And(x, term(depth-1))
		case 4:
			return b.Mul(x, b.Const(uint64(1+d.intn(8)), 64))
		default:
			return b.Shl(x, b.Const(uint64(d.intn(8)), 64))
		}
	}
	var cons []*expr.Node
	for n := 1 + d.intn(8); n > 0; n-- {
		var con *expr.Node
		switch d.intn(5) {
		case 0:
			con = b.Eq(cells[d.intn(len(cells))], constant())
		case 1:
			// A second binding of one cell: the same constant or another.
			v, k := cells[d.intn(len(cells))], constant()
			cons = append(cons, b.Eq(k, v))
			con = b.Eq(v, b.Const(k.Val+uint64(d.intn(2)), 64))
		case 2:
			con = b.Eq(term(2), constant())
		case 3:
			con = b.Ult(term(2), term(2))
		default:
			con = b.BNot(b.Eq(term(2), constant()))
		}
		cons = append(cons, con)
	}
	return cells, cons
}

// presolveAgrees checks solve against one solve of the full conjunction:
// the same verdict, and on Sat a model that satisfies every constraint,
// reading the cells it leaves out as 0 as Concretize's materializer does.
// It returns the verdict, Unknown when the full solve decides nothing.
func presolveAgrees(t *testing.T, cells, cons []*expr.Node, b *expr.Builder) solver.Result {
	t.Helper()
	want, _ := solver.New(solver.Options{MaxConflicts: maxConflicts}).Check(b.AndAll(cons))
	if want == solver.Unknown {
		return want
	}
	c := NewConcretizer(&gadget.Pool{Builder: b}, nil, stackBase)
	model, err := c.solve(append([]*expr.Node(nil), cons...))
	got := solver.Sat
	if err != nil {
		if !errors.Is(err, ErrUnsat) {
			t.Fatalf("solve: %v, want nil or ErrUnsat", err)
		}
		got = solver.Unsat
	}
	if got != want {
		t.Fatalf("presolve says %v (%v), full solve says %v\nconstraints: %v", got, err, want, cons)
	}
	if got != solver.Sat {
		return got
	}
	env := expr.Env{}
	for _, v := range cells {
		env[v.Name] = model[v.Name]
	}
	for _, con := range cons {
		if ok, err := expr.EvalBool(con, env); err != nil || !ok {
			t.Fatalf("model %v violates %v (%v)\nconstraints: %v", env, con, err, cons)
		}
	}
	return got
}

// TestPresolveMatchesFullSolve differentially checks Concretize's presolve
// against the solve of the full conjunction it replaces, over seeded random
// constraint sets.
func TestPresolveMatchesFullSolve(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	verdicts := map[solver.Result]int{}
	for i := 0; i < 400; i++ {
		b := expr.NewBuilder()
		cells, cons := constraintSet(b, randDraw{r})
		verdicts[presolveAgrees(t, cells, cons, b)]++
	}
	t.Logf("verdicts: %v", verdicts)
	if verdicts[solver.Sat] < 100 || verdicts[solver.Unsat] < 100 {
		t.Errorf("verdicts %v: want at least 100 Sat and 100 Unsat sets", verdicts)
	}
}

// FuzzPresolve is TestPresolveMatchesFullSolve over constraint sets decoded
// from fuzz bytes.
func FuzzPresolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 1, 2, 0, 1, 0, 0, 2, 1, 3, 1, 4})
	f.Add([]byte{1, 2, 2, 7, 0, 2, 1, 1, 3, 2, 5, 0, 1, 4, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := expr.NewBuilder()
		cells, cons := constraintSet(b, &byteDraw{data})
		presolveAgrees(t, cells, cons, b)
	})
}

// TestPresolveUnsat checks the verdicts the presolve reaches without the
// solver: two bindings of one cell to different constants, and a constraint
// the bindings fold to false.
func TestPresolveUnsat(t *testing.T) {
	b := expr.NewBuilder()
	x, y := cellVar(b, 8), cellVar(b, 16)
	for _, tc := range []struct {
		name string
		cons []*expr.Node
		want []string // substrings of the error
	}{
		{"conflicting bindings",
			[]*expr.Node{b.Eq(x, b.Const(0x3b, 64)), b.Eq(b.Const(0x3c, 64), x)},
			[]string{"cell_8", "0x3b", "0x3c"}},
		{"residual folds to false",
			[]*expr.Node{b.Eq(x, b.Const(5, 64)), b.Eq(y, b.Const(1, 64)), b.Ult(b.Add(x, y), b.Const(6, 64))},
			[]string{"folds to false"}},
	} {
		c := NewConcretizer(&gadget.Pool{Builder: b}, nil, stackBase)
		_, err := c.solve(tc.cons)
		if !errors.Is(err, ErrUnsat) {
			t.Errorf("%s: %v, want ErrUnsat", tc.name, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not name %q", tc.name, err, w)
			}
		}
		if n := c.sol.Blasted.Load(); n != 0 {
			t.Errorf("%s: blasted %d queries, want none", tc.name, n)
		}
	}
}
