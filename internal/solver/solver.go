package solver

import (
	"sync"
	"sync/atomic"

	"github.com/nofreelunch/gadget-planner/internal/expr"
)

// Result is the outcome of a satisfiability check.
type Result int

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

// String returns the conventional lower-case name.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Options tune the solver.
type Options struct {
	// MaxConflicts bounds CDCL search effort per query; exceeded queries
	// return Unknown. Zero selects a generous default.
	MaxConflicts int64
}

// Solver answers satisfiability, implication, and equivalence queries over
// expr formulas. Verdict-only queries (Sat, Valid, Implies, EquivalentBV,
// EquivalentBool) are answered by constant folding when simplification has
// already decided them, else from a verdict cache that computes each
// distinct query once (see cache.go), else by the bit-blaster. A Solver is
// safe for concurrent use; subsume.Minimize gives all its workers one, so
// each distinct query is blasted once whatever the schedule.
type Solver struct {
	opts Options

	// Queries, Conflicts, CacheHits and Blasted accumulate statistics
	// across calls. Queries counts logical queries, constant-folded ones
	// included; CacheHits counts verdict queries answered from the verdict
	// cache; Blasted counts queries that reached the bit-blaster (each
	// distinct non-constant verdict query once, plus every model-producing
	// Check/Solve call).
	Queries   atomic.Int64
	Conflicts atomic.Int64
	CacheHits atomic.Int64
	Blasted   atomic.Int64

	mu    sync.Mutex
	cache map[string]*verdict
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 200_000
	}
	return &Solver{opts: opts, cache: make(map[string]*verdict)}
}

// Default returns a solver with default options.
func Default() *Solver { return New(Options{}) }

// Check decides the conjunction of the given boolean formulas. On Sat it
// returns a model assigning every variable occurring in the formulas.
func (s *Solver) Check(formulas ...*expr.Node) (Result, expr.Env) {
	s.Queries.Add(1)
	return s.solve(formulas)
}

// constVerdict decides the conjunction when simplification has already
// folded a conjunct to false or every conjunct to true.
func constVerdict(formulas []*expr.Node) (Result, bool) {
	allConst := true
	for _, f := range formulas {
		v, ok := f.IsBoolConst()
		if ok && !v {
			return Unsat, true
		}
		if !ok {
			allConst = false
		}
	}
	if allConst {
		return Sat, true
	}
	return Unknown, false
}

// solve is Check without the query accounting: the constant fast path
// followed by the full bit-blast + CDCL solve.
func (s *Solver) solve(formulas []*expr.Node) (Result, expr.Env) {
	if r, ok := constVerdict(formulas); ok {
		if r == Sat {
			return Sat, expr.Env{}
		}
		return Unsat, nil
	}

	s.Blasted.Add(1)
	sat := newSAT()
	bl := newBlaster(sat)
	for _, f := range formulas {
		l, err := bl.boolLit(f)
		if err != nil {
			return Unknown, nil
		}
		if !sat.addClause([]lit{l}) {
			return Unsat, nil
		}
	}
	before := sat.conflicts
	res := sat.solve(nil, s.opts.MaxConflicts)
	s.Conflicts.Add(sat.conflicts - before)
	switch res {
	case resSat:
		return Sat, bl.model(nil)
	case resUnsat:
		return Unsat, nil
	default:
		return Unknown, nil
	}
}

// Sat reports whether the conjunction of formulas is satisfiable, treating
// Unknown as satisfiable (the safe direction for pruning).
func (s *Solver) Sat(formulas ...*expr.Node) bool {
	return s.checkVerdict(formulas...) != Unsat
}

// Valid reports whether f holds in every model (its negation is Unsat).
// Unknown results report false.
func (s *Solver) Valid(b *expr.Builder, f *expr.Node) bool {
	return s.checkVerdict(b.BNot(f)) == Unsat
}

// Implies reports whether p logically entails q: p && !q is Unsat.
// Unknown results report false.
func (s *Solver) Implies(b *expr.Builder, p, q *expr.Node) bool {
	return s.checkVerdict(p, b.BNot(q)) == Unsat
}

// EquivalentBV reports whether two bitvector terms are equal in every model.
func (s *Solver) EquivalentBV(b *expr.Builder, x, y *expr.Node) bool {
	if x == y {
		return true
	}
	if x.Width != y.Width {
		return false
	}
	return s.checkVerdict(b.BNot(b.Eq(x, y))) == Unsat
}

// EquivalentBool reports whether two boolean formulas agree in every model.
func (s *Solver) EquivalentBool(b *expr.Builder, p, q *expr.Node) bool {
	if p == q {
		return true
	}
	return s.checkVerdict(b.BNot(b.Eq(b.Ite(p, b.Const(1, 8), b.Const(0, 8)),
		b.Ite(q, b.Const(1, 8), b.Const(0, 8))))) == Unsat
}
