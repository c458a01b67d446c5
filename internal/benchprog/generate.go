package benchprog

// The seeded MiniC program generator: the corpus scale-out substrate. The
// hand-written suite (12 Banescu-style + 4 SPEC-style + netperf) is what the
// paper evaluated; gadget-set effects only become statistically credible
// across hundreds of binaries, so Generate produces arbitrarily many
// benchmark programs, deterministic per (seed, size class).
//
// Design constraints, in priority order:
//
//  1. Determinism: the same (seed, class) always yields byte-identical
//     source (a private splitmix64 stream, no map iteration, no math/rand —
//     whose sequence is not pinned across Go releases).
//  2. Total safety: every generated program terminates with a stable
//     integer checksum under EVERY obfuscation configuration. Loops have
//     constant trip counts, the call graph is acyclic (functions only call
//     lower-numbered functions), array indices are masked with
//     power-of-two-minus-one constants (non-negative for any signed
//     operand), and division/modulo never appear — so there is no UB-like
//     behavior for an obfuscation pass to perturb.
//  3. Analysis-relevant mix: arithmetic/bitwise expressions, data-dependent
//     branches, counted loops (nestable), global array reads and writes,
//     and cross-function calls — the statement shapes whose obfuscated
//     forms (dispatchers, opaque predicates, virtualized handlers) carry
//     the paper's attack-surface story.
//
// Program shape: a few global int arrays, Funcs helper functions f0..fN-1
// in an acyclic call DAG, and a main that fills the arrays, folds every
// helper into a checksum, and prints it. The checksum is the program's
// ground-truth output; obfuscated builds must reproduce it exactly.

import (
	"fmt"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// SizeClass parameterizes generated-program shape. All fields are part of
// the deterministic generation key: two programs generated with the same
// seed but different classes share nothing.
type SizeClass struct {
	Name string
	// Funcs is how many helper functions the program defines (call-graph
	// depth is bounded by this: fK may only call fJ, J < K).
	Funcs int
	// Globals is how many global int arrays the program declares.
	Globals int
	// ArrayLen is each array's length; must be a power of two so index
	// expressions can be masked in-bounds with `& (ArrayLen-1)`.
	ArrayLen int
	// Stmts is how many statements each function body grows.
	Stmts int
	// MaxDepth bounds if/for nesting inside a function body.
	MaxDepth int
	// ExprDepth bounds generated expression trees.
	ExprDepth int
	// Calls is how many lower-numbered functions each function folds into
	// its result (capped by its index, keeping total dynamic call counts
	// Fibonacci-bounded rather than exponential).
	Calls int
}

// SizeClasses returns the generator's standard classes, smallest first.
func SizeClasses() []SizeClass {
	return []SizeClass{
		{Name: "small", Funcs: 3, Globals: 2, ArrayLen: 16, Stmts: 5, MaxDepth: 1, ExprDepth: 2, Calls: 1},
		{Name: "medium", Funcs: 5, Globals: 3, ArrayLen: 32, Stmts: 7, MaxDepth: 2, ExprDepth: 3, Calls: 2},
		{Name: "large", Funcs: 8, Globals: 4, ArrayLen: 64, Stmts: 9, MaxDepth: 2, ExprDepth: 4, Calls: 2},
	}
}

// SizeClassByName finds a standard class.
func SizeClassByName(name string) (SizeClass, bool) {
	for _, c := range SizeClasses() {
		if c.Name == name {
			return c, true
		}
	}
	return SizeClass{}, false
}

// genRand is a splitmix64 stream: tiny, uniform, and — unlike math/rand —
// guaranteed stable across Go releases, which the byte-identity contract
// depends on.
type genRand struct{ state uint64 }

func (r *genRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *genRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *genRand) pick(ss []string) string { return ss[r.intn(len(ss))] }

// genSeed folds the program seed and the class identity into the stream
// seed, so every class parameter change re-randomizes everything.
func genSeed(seed int64, c SizeClass) uint64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, b := range []byte(c.Name) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	for _, v := range []int{c.Funcs, c.Globals, c.ArrayLen, c.Stmts, c.MaxDepth, c.ExprDepth, c.Calls} {
		h = (h ^ uint64(v)) * 0x100000001B3
	}
	return h
}

// gen carries generation state for one program.
type gen struct {
	r     *genRand
	c     SizeClass
	mask  int // ArrayLen - 1
	scope []string
	temps int
}

// Generate produces one deterministic program for (seed, class). The same
// arguments always return byte-identical source; distinct seeds differ.
// Generated programs are named "gen-<class>-s<seed>".
func Generate(seed int64, c SizeClass) Program {
	g := &gen{r: &genRand{state: genSeed(seed, c)}, c: c, mask: c.ArrayLen - 1}
	var sb strings.Builder

	for i := 0; i < c.Globals; i++ {
		fmt.Fprintf(&sb, "int g%d[%d];\n", i, c.ArrayLen)
	}
	sb.WriteByte('\n')
	for fi := 0; fi < c.Funcs; fi++ {
		g.emitFunc(&sb, fi)
	}
	g.emitMain(&sb)

	return Program{
		Name:        fmt.Sprintf("gen-%s-s%d", c.Name, seed),
		Description: fmt.Sprintf("generated %s-class program (seed %d)", c.Name, seed),
		Source:      sb.String(),
	}
}

// emitFunc writes one helper function: loop-variable and temp declarations,
// folded calls into lower-numbered functions, Stmts random statements, and
// a checksum return.
func (g *gen) emitFunc(sb *strings.Builder, fi int) {
	fmt.Fprintf(sb, "int f%d(int a, int b) {\n", fi)
	for i := 0; i <= g.c.MaxDepth; i++ {
		fmt.Fprintf(sb, "    int i%d = 0;\n", i)
	}
	g.scope = []string{"a", "b"}
	g.temps = 2
	fmt.Fprintf(sb, "    int t0 = %s;\n", g.expr(g.c.ExprDepth))
	fmt.Fprintf(sb, "    int t1 = %s;\n", g.expr(g.c.ExprDepth))
	g.scope = append(g.scope, "t0", "t1")

	// Calls fold lower-numbered functions in; the DAG keeps termination
	// trivially provable and the per-function cap keeps the dynamic call
	// count Fibonacci-bounded in Funcs.
	calls := g.c.Calls
	if calls > fi {
		calls = fi
	}
	for ci := 0; ci < calls; ci++ {
		callee := g.r.intn(fi)
		fmt.Fprintf(sb, "    t%d = (t%d ^ f%d(%s, %s));\n",
			ci%2, ci%2, callee, g.expr(1), g.expr(1))
	}

	for si := 0; si < g.c.Stmts; si++ {
		g.stmt(sb, 1, 0)
	}
	fmt.Fprintf(sb, "    return (t0 ^ (t1 * %d));\n}\n\n", 3+2*g.r.intn(30))
}

// emitMain writes main: array fills, one call per helper folded into the
// checksum, and the printed result that is the program's ground truth.
func (g *gen) emitMain(sb *strings.Builder) {
	sb.WriteString("int main() {\n    int i0 = 0;\n")
	fmt.Fprintf(sb, "    int acc = %d;\n", 1+g.r.intn(1000))
	fmt.Fprintf(sb, "    for (i0 = 0; i0 < %d; i0++) {\n", g.c.ArrayLen)
	for gi := 0; gi < g.c.Globals; gi++ {
		fmt.Fprintf(sb, "        g%d[i0] = ((i0 * %d) ^ %d);\n",
			gi, 3+2*g.r.intn(60), g.r.intn(512))
	}
	sb.WriteString("    }\n")
	for fi := 0; fi < g.c.Funcs; fi++ {
		fmt.Fprintf(sb, "    acc = ((acc * 31) + f%d(%d, acc));\n", fi, g.r.intn(64))
	}
	sb.WriteString("    print_int(acc);\n    print_char('\\n');\n    return 0;\n}\n")
}

// stmt writes one random statement at the given nesting depth with the
// given indent level (indent 0 = function body).
func (g *gen) stmt(sb *strings.Builder, depth, indent int) {
	pad := strings.Repeat("    ", indent+1)
	kind := g.r.intn(6)
	// At max nesting depth, degrade structured statements to flat ones.
	if depth > g.c.MaxDepth && kind >= 4 {
		kind = g.r.intn(4)
	}
	switch kind {
	case 0: // assign an existing temp
		fmt.Fprintf(sb, "%s%s = %s;\n", pad, g.pickVar(), g.expr(g.c.ExprDepth))
	case 1: // declare a fresh temp
		name := fmt.Sprintf("t%d", g.temps)
		g.temps++
		fmt.Fprintf(sb, "%sint %s = %s;\n", pad, name, g.expr(g.c.ExprDepth))
		g.scope = append(g.scope, name)
	case 2, 3: // global array store, masked in-bounds
		fmt.Fprintf(sb, "%sg%d[%s] = %s;\n", pad,
			g.r.intn(g.c.Globals), g.index(), g.expr(g.c.ExprDepth))
	case 4: // data-dependent branch
		fmt.Fprintf(sb, "%sif (%s) {\n", pad, g.cond())
		g.block(sb, depth, indent, 1)
		if g.r.intn(2) == 0 {
			fmt.Fprintf(sb, "%s} else {\n", pad)
			g.block(sb, depth, indent, 1)
		}
		fmt.Fprintf(sb, "%s}\n", pad)
	case 5: // counted loop with a constant trip count
		iv := fmt.Sprintf("i%d", depth)
		trip := 4 + g.r.intn(7)
		fmt.Fprintf(sb, "%sfor (%s = 0; %s < %d; %s++) {\n", pad, iv, iv, trip, iv)
		g.scope = append(g.scope, iv)
		g.block(sb, depth, indent, 1+g.r.intn(2))
		g.scope = g.scope[:len(g.scope)-1]
		fmt.Fprintf(sb, "%s}\n", pad)
	}
}

// block writes n nested statements and restores the enclosing scope:
// temps declared inside a MiniC block die with it, so the generator must
// not reference them afterwards.
func (g *gen) block(sb *strings.Builder, depth, indent, n int) {
	save := len(g.scope)
	for i := 0; i < n; i++ {
		g.stmt(sb, depth+1, indent+1)
	}
	g.scope = g.scope[:save]
}

// pickVar returns a mutable in-scope temp or parameter.
func (g *gen) pickVar() string {
	// Loop variables at the end of scope are excluded: assigning them could
	// break a loop's constant trip count.
	mutable := make([]string, 0, len(g.scope))
	for _, v := range g.scope {
		if !strings.HasPrefix(v, "i") {
			mutable = append(mutable, v)
		}
	}
	return g.r.pick(mutable)
}

// index renders an in-bounds array index: any int expression masked with
// ArrayLen-1, which is non-negative for every signed operand.
func (g *gen) index() string {
	return fmt.Sprintf("(%s & %d)", g.expr(1), g.mask)
}

// cond renders a comparison for branch statements.
func (g *gen) cond() string {
	op := g.r.pick([]string{"<", ">", "<=", ">=", "==", "!="})
	return fmt.Sprintf("(%s %s %s)", g.expr(g.c.ExprDepth-1), op, g.expr(g.c.ExprDepth-1))
}

// expr renders a random expression tree. Every binary node is fully
// parenthesized, so generated programs never depend on parser precedence.
// Operators are total: +, -, *, and bitwise ops wrap deterministically;
// shifts use small constant amounts; division and modulo never appear.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.r.intn(4) == 0 {
		return g.atom()
	}
	switch g.r.intn(8) {
	case 0, 1, 2, 3, 4:
		op := g.r.pick([]string{"+", "-", "*", "^", "&", "|"})
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 5:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), 1+g.r.intn(3))
	case 6:
		// Arithmetic right shift of a possibly-negative value is well
		// defined in the emulator (sign fill) and deterministic.
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1), 1+g.r.intn(3))
	default:
		return fmt.Sprintf("g%d[%s]", g.r.intn(g.c.Globals), g.index())
	}
}

// atom renders a leaf: an in-scope variable or a constant.
func (g *gen) atom() string {
	if g.r.intn(3) == 0 {
		return fmt.Sprintf("%d", g.r.intn(256))
	}
	return g.r.pick(g.scope)
}

// GeneratedCorpus returns n generated programs seeded from baseSeed,
// cycling size classes small-heavy (small, small, small, medium, medium,
// large), matching how real corpora skew toward small translation units.
// The corpus is deterministic in (baseSeed, n) and programs never collide:
// program i uses seed baseSeed+i.
func GeneratedCorpus(baseSeed int64, n int) []Program {
	classes := SizeClasses()
	mix := []int{0, 0, 0, 1, 1, 2} // indexes into classes
	out := make([]Program, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Generate(baseSeed+int64(i), classes[mix[i%len(mix)]]))
	}
	return out
}

// ValidateGenerated builds and runs p under every obfuscation arm — plain,
// each individual pass, and both composite configurations — and checks all
// of them reproduce the plain build's output exactly. It is how the
// generator's safety contract (every program runs to a stable checksum
// under all passes) is enforced in tests and spot-checked by callers.
func ValidateGenerated(p Program, obfSeed int64) error {
	const maxSteps = 80_000_000
	plain, err := BuildISA(p, nil, obfSeed, "")
	if err != nil {
		return fmt.Errorf("benchprog: %s: plain build: %w", p.Name, err)
	}
	ref, err := runCapped(plain, p, maxSteps)
	if err != nil {
		return fmt.Errorf("benchprog: %s: plain run: %w", p.Name, err)
	}
	if ref == "" {
		return fmt.Errorf("benchprog: %s: plain build produced no output", p.Name)
	}

	arms := make(map[string][]obfuscate.Pass)
	var order []string
	for _, name := range obfuscate.AllPassNames() {
		pass, err := obfuscate.ByName(name)
		if err != nil {
			return err
		}
		arms[name] = []obfuscate.Pass{pass}
		order = append(order, name)
	}
	arms["llvm-obf"] = obfuscate.LLVMObf()
	arms["tigress"] = obfuscate.Tigress()
	order = append(order, "llvm-obf", "tigress")

	for _, name := range order {
		bin, err := BuildISA(p, arms[name], obfSeed, "")
		if err != nil {
			return fmt.Errorf("benchprog: %s: %s build: %w", p.Name, name, err)
		}
		out, err := runCapped(bin, p, maxSteps)
		if err != nil {
			return fmt.Errorf("benchprog: %s: %s run: %w", p.Name, name, err)
		}
		if out != ref {
			return fmt.Errorf("benchprog: %s: %s output %q != plain %q", p.Name, name, out, ref)
		}
	}
	return nil
}

// runCapped executes a build with a step bound and returns its stdout.
func runCapped(bin *sbf.Binary, p Program, maxSteps uint64) (string, error) {
	res, err := codegen.Run(bin, p.Stdin, maxSteps)
	if err != nil {
		return "", err
	}
	return res.Stdout, nil
}
