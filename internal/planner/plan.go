// Package planner implements Gadget-Planner's partial-order planning stage
// (paper Section IV-D, Algorithm 1): a backward greedy best-first search
// from an attack goal over the gadget pool, maintaining for every partial
// plan the 5-tuple (alpha, beta, gamma, delta, epsilon) — selected gadgets,
// ordering constraints, causal links, open pre-conditions, and threatened
// links (resolved eagerly by promotion/demotion).
//
// A completed plan is an abstract chain: gadget instances, a partial order,
// and residual constraints. The payload package linearizes and concretizes
// plans into injectable bytes, discharging the residual constraints with the
// SMT solver.
package planner

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// SpecKind describes what kind of value a register must hold.
type SpecKind uint8

// Value specification kinds.
const (
	SpecConst     SpecKind = iota + 1 // a known 64-bit constant
	SpecPointer                       // a pointer to attacker-placed bytes
	SpecArbitrary                     // any attacker-chosen value (e.g. a jump target)
)

// ValueSpec is a requirement on a register's value.
type ValueSpec struct {
	Kind  SpecKind
	Value uint64 // SpecConst
	Data  []byte // SpecPointer: bytes the register must point at
}

// ConstSpec returns a constant-value spec.
func ConstSpec(v uint64) ValueSpec { return ValueSpec{Kind: SpecConst, Value: v} }

// PointerSpec returns a pointer-to-data spec.
func PointerSpec(data []byte) ValueSpec { return ValueSpec{Kind: SpecPointer, Data: data} }

// ArbitrarySpec returns an attacker-chosen-value spec.
func ArbitrarySpec() ValueSpec { return ValueSpec{Kind: SpecArbitrary} }

// String renders the spec.
func (v ValueSpec) String() string {
	switch v.Kind {
	case SpecConst:
		return fmt.Sprintf("%#x", v.Value)
	case SpecPointer:
		return fmt.Sprintf("ptr(%q)", v.Data)
	case SpecArbitrary:
		return "*"
	}
	return "?"
}

// equalSpec reports whether two specs request the same value.
func equalSpec(a, b ValueSpec) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case SpecConst:
		return a.Value == b.Value
	case SpecPointer:
		return string(a.Data) == string(b.Data)
	default:
		return true
	}
}

// Goal is an attack objective: register values that must hold when a
// syscall-terminated gadget fires (paper Section II-B).
type Goal struct {
	Name string
	Regs map[isa.Reg]ValueSpec
}

// goalTable is the paper's three attack goals: a syscall number and the
// specs of its arguments, in argument order. Syscall numbers follow the
// x86-64 Linux numbering on every backend (the emulated OS model is
// ISA-independent); only the registers carrying the number and the
// arguments differ.
var goalTable = []struct {
	name string
	num  uint64
	args []ValueSpec
}{
	{"execve", 59, []ValueSpec{PointerSpec([]byte("/bin/sh\x00")), ConstSpec(0), ConstSpec(0)}},
	// mprotect(0x601000, 0x1000, PROT_READ|WRITE|EXEC)
	{"mprotect", 10, []ValueSpec{ConstSpec(0x601000), ConstSpec(0x1000), ConstSpec(7)}},
	// mmap(0, 0x1000, RWX, MAP_PRIVATE|MAP_ANONYMOUS, ...). The fd and
	// offset arguments are left unconstrained, as the OS model ignores
	// them for anonymous mappings.
	{"mmap", 9, []ValueSpec{ConstSpec(0), ConstSpec(0x1000), ConstSpec(7), ConstSpec(0x22)}},
}

// goalFor builds goalTable[i] in a backend's syscall ABI. Goals share
// their pointer data, which nothing writes.
func goalFor(be isa.Backend, i int) Goal {
	abi := be.Syscall()
	g := goalTable[i]
	regs := map[isa.Reg]ValueSpec{abi.Num: ConstSpec(g.num)}
	for j, spec := range g.args {
		regs[abi.Args[j]] = spec
	}
	return Goal{Name: g.name, Regs: regs}
}

// ExecveGoal returns the x86-64 execve("/bin/sh", 0, 0) goal:
// rax=59, rdi -> "/bin/sh", rsi=0, rdx=0.
func ExecveGoal() Goal { return goalFor(isa.X64, 0) }

// MprotectGoal returns the x86-64 mprotect(0x601000, 0x1000, RWX) goal.
func MprotectGoal() Goal { return goalFor(isa.X64, 1) }

// MmapGoal returns the x86-64 mmap(0, 0x1000, RWX, MAP_PRIVATE|MAP_ANONYMOUS)
// goal; r10 carries the flags.
func MmapGoal() Goal { return goalFor(isa.X64, 2) }

// Goals returns the three standard attack goals of the paper on x86-64.
func Goals() []Goal { return GoalsForISA(isa.DefaultISA) }

// GoalsForISA returns the standard goals expressed in a backend's syscall
// ABI; an unknown backend name yields the x86-64 goals.
func GoalsForISA(isaName string) []Goal {
	be, ok := isa.ByName(isaName)
	if !ok {
		be = isa.X64
	}
	out := make([]Goal, len(goalTable))
	for i := range goalTable {
		out[i] = goalFor(be, i)
	}
	return out
}

// Requirement is one open pre-condition in delta: the consumer step needs
// reg to hold spec at its entry.
type Requirement struct {
	Step int // consumer step ID
	Reg  isa.Reg
	Spec ValueSpec
}

// Link is a causal link in gamma: producer's exit supplies consumer's entry
// requirement on Reg.
type Link struct {
	Producer, Consumer int
	Reg                isa.Reg
	Spec               ValueSpec
}

// SlotDemand records that a gadget instance's own stack inputs must be
// chosen so that an expression over them equals a target at concretization
// time (register fed from payload slots, solved by the SMT solver).
type SlotDemand struct {
	Step int
	// Expr is over the gadget's local variable namespace.
	Expr *expr.Node
	Spec ValueSpec
}

// Step is one plan step: a gadget instance. ID 0 is the Start step (the
// payload injection itself, no gadget); the goal step carries the
// syscall-terminated gadget.
type Step struct {
	ID int
	G  *gadget.Gadget // nil for Start
}

// maxOrderSteps bounds the number of steps a plan's ordering machinery can
// track: ancestor sets are single-word bitsets indexed by step ID.
const maxOrderSteps = 64

// Plan is a (possibly incomplete) attack plan: the paper's problem state.
// Search keeps its frontier as nodes that record only what each expansion
// added (search.go); a Plan is what it materializes a node into to expand
// it, builds candidates in, and returns.
type Plan struct {
	Steps []Step        // alpha
	Order [][2]int      // beta: (before, after) pairs
	Links []Link        // gamma
	Open  []Requirement // delta
	// Demands are deferred slot equations (part of the plan's constraints).
	Demands []SlotDemand
	// goalStep is the syscall step's ID.
	goalStep int
	// reach[i] is the bitset of step IDs ordered strictly before step i
	// under the transitive closure of Order. Maintained incrementally by
	// addOrder; rebuilt lazily for plans assembled by hand.
	reach []uint64
	// demandKeys dedups Demands once they outgrow a linear scan; nil until
	// then, and dropped by copyFrom and by materializing a node, so plans
	// with few demands pay nothing for it.
	demandKeys map[demandKey]struct{}
}

// RestorePlan reassembles a plan from its serialized parts — the inverse of
// reading a searched plan's exported fields plus GoalStep. It exists for the
// artifact store's persistent tier (internal/pipeline), which decodes plan
// artifacts back from disk. The reachability bitsets are rebuilt lazily on
// first ordering query, exactly as for plans assembled by hand.
func RestorePlan(steps []Step, order [][2]int, links []Link, open []Requirement, demands []SlotDemand, goalStep int) *Plan {
	return &Plan{
		Steps:    steps,
		Order:    order,
		Links:    links,
		Open:     open,
		Demands:  demands,
		goalStep: goalStep,
	}
}

// copyFrom overwrites q with p, Open replaced by open, reusing q's buffers
// (steps and gadget pointers are shared immutably). The expansion hot path
// builds every candidate successor in one scratch plan this way, from the
// expanded node's materialized plan, and keeps a consistent one as a node
// holding only what the candidate added. Search copies a complete plan out
// this way — into a fresh Plan, so at exact size — only once its signature
// is new.
func (q *Plan) copyFrom(p *Plan, open []Requirement) {
	p.ensureReach()
	q.Steps = append(q.Steps[:0], p.Steps...)
	q.Order = append(q.Order[:0], p.Order...)
	q.Links = append(q.Links[:0], p.Links...)
	q.Open = append(q.Open[:0], open...)
	q.Demands = append(q.Demands[:0], p.Demands...)
	q.goalStep = p.goalStep
	q.reach = append(q.reach[:0], p.reach...)
	q.demandKeys = nil
}

// specKey is a canonical map key for a ValueSpec, matching equalSpec: the
// value matters only for SpecConst, the data only for SpecPointer.
type specKey struct {
	kind SpecKind
	val  uint64
	data string
}

func canonSpecKey(s ValueSpec) specKey {
	switch s.Kind {
	case SpecConst:
		return specKey{kind: SpecConst, val: s.Value}
	case SpecPointer:
		return specKey{kind: SpecPointer, data: string(s.Data)}
	default:
		return specKey{kind: s.Kind}
	}
}

// demandKey identifies a slot demand by (step, expression node, spec).
// Expression nodes are hash-consed per builder, so pointer identity is
// structural identity within one search.
type demandKey struct {
	step int
	e    *expr.Node
	spec specKey
}

// demandScanCutoff is the Demands length above which addDemand switches
// from a linear duplicate scan to the keyed map. Small sets — the common
// case by far — are cheaper to scan than to re-hash after every copy
// (copies and materialized nodes drop the map); large sets get the map so
// repeated inserts stay O(1) instead of going quadratic. The cutoff
// depends only on the plan, so dedup behavior is identical at any worker
// count and with the caches off.
const demandScanCutoff = 16

// addDemand appends d unless an identical demand is already recorded.
func (p *Plan) addDemand(d SlotDemand) {
	if p.demandKeys == nil && len(p.Demands) < demandScanCutoff {
		for i := range p.Demands {
			ex := &p.Demands[i]
			if ex.Step == d.Step && ex.Expr == d.Expr && equalSpec(ex.Spec, d.Spec) {
				return
			}
		}
		p.Demands = append(p.Demands, d)
		return
	}
	if p.demandKeys == nil {
		p.demandKeys = make(map[demandKey]struct{}, len(p.Demands)+1)
		for _, ex := range p.Demands {
			p.demandKeys[demandKey{ex.Step, ex.Expr, canonSpecKey(ex.Spec)}] = struct{}{}
		}
	}
	k := demandKey{d.Step, d.Expr, canonSpecKey(d.Spec)}
	if _, dup := p.demandKeys[k]; dup {
		return
	}
	p.demandKeys[k] = struct{}{}
	p.Demands = append(p.Demands, d)
}

// GoalStep returns the syscall step's ID.
func (p *Plan) GoalStep() int { return p.goalStep }

// step returns the step with the given ID.
func (p *Plan) step(id int) *Step { return &p.Steps[id] }

// Complete reports whether no open pre-conditions remain.
func (p *Plan) Complete() bool { return len(p.Open) == 0 }

// NumGadgets counts real gadget steps.
func (p *Plan) NumGadgets() int {
	n := 0
	for _, s := range p.Steps {
		if s.G != nil {
			n++
		}
	}
	return n
}

// ensureReach (re)establishes the ancestor bitsets. Plans built through
// Search maintain them incrementally; plans assembled by hand (tests,
// external constructors) get them rebuilt from Order here. Appended steps
// with no edges yet simply extend the slice with empty sets.
func (p *Plan) ensureReach() {
	if len(p.Steps) > maxOrderSteps {
		panic("planner: plan exceeds maxOrderSteps (ordering bitsets are single-word)")
	}
	if p.reach == nil && len(p.Order) > 0 {
		// Hand-built plan: recompute the closure by fixed point (Order is
		// tiny for hand-built plans; searched plans never take this path).
		p.reach = make([]uint64, len(p.Steps))
		for changed := true; changed; {
			changed = false
			for _, o := range p.Order {
				next := p.reach[o[1]] | p.reach[o[0]] | 1<<uint(o[0])
				if next != p.reach[o[1]] {
					p.reach[o[1]] = next
					changed = true
				}
			}
		}
		return
	}
	for len(p.reach) < len(p.Steps) {
		p.reach = append(p.reach, 0)
	}
}

// orderedBefore reports whether a must precede b under the transitive
// closure of Order.
func (p *Plan) orderedBefore(a, b int) bool {
	if a == b {
		return false
	}
	p.ensureReach()
	return p.reach[b]&(1<<uint(a)) != 0
}

// addOrder inserts a precedence edge, reporting false if it would create a
// cycle. The transitive closure is maintained incrementally: the new
// ancestor set of `after` (before plus before's ancestors) is OR-ed into
// `after` and into every step that already has `after` as an ancestor.
func (p *Plan) addOrder(before, after int) bool {
	if before == after {
		return false
	}
	p.ensureReach()
	if p.reach[before]&(1<<uint(after)) != 0 {
		return false // after already precedes before: cycle
	}
	for _, o := range p.Order {
		if o[0] == before && o[1] == after {
			return true
		}
	}
	p.Order = append(p.Order, [2]int{before, after})
	if p.reach[after]&(1<<uint(before)) == 0 {
		mask := p.reach[before] | 1<<uint(before)
		bit := uint64(1) << uint(after)
		p.reach[after] |= mask
		for i := range p.reach {
			if p.reach[i]&bit != 0 {
				p.reach[i] |= mask
			}
		}
	}
	return true
}

// Linearize produces a total order of step IDs consistent with the partial
// order: Start first, goal last, and ties broken by step ID (insertion
// order, which tends to put producers late in the search and hence early in
// the backward-built chain).
func (p *Plan) Linearize() []int {
	indeg := make(map[int]int, len(p.Steps))
	adj := make(map[int][]int)
	for _, s := range p.Steps {
		indeg[s.ID] = 0
	}
	for _, o := range p.Order {
		adj[o[0]] = append(adj[o[0]], o[1])
		indeg[o[1]]++
	}
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	var out []int
	for len(ready) > 0 {
		sort.Ints(ready)
		// Prefer the goal step last: among ready nodes pick a non-goal one
		// if possible, highest ID first (later-added gadgets are deeper
		// producers and must run earlier).
		pick := -1
		for i := len(ready) - 1; i >= 0; i-- {
			if ready[i] != p.goalStep || len(out)+1 == len(p.Steps) {
				pick = i
				break
			}
		}
		if pick == -1 {
			pick = 0
		}
		id := ready[pick]
		ready = append(ready[:pick], ready[pick+1:]...)
		out = append(out, id)
		for _, next := range adj[id] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	return out
}

// Chain returns the linearized gadget sequence (Start omitted).
func (p *Plan) Chain() []*gadget.Gadget {
	var out []*gadget.Gadget
	for _, id := range p.Linearize() {
		if g := p.step(id).G; g != nil {
			out = append(out, g)
		}
	}
	return out
}

// Signature identifies the plan by the multiset of its gadgets' semantic
// shapes. Chains that differ only in which address supplies an equivalent
// gadget (e.g. two pop-rbp sites) share a signature, so the search's output
// counts structurally diverse chains — the paper's notion of chain
// diversity — rather than address permutations.
func (p *Plan) Signature() string {
	var shapes []string
	for _, s := range p.Steps {
		if s.G != nil {
			shapes = append(shapes, gadgetShape(s.G))
		}
	}
	sort.Strings(shapes)
	return strings.Join(shapes, ",")
}

// gadgetShape summarizes a gadget's plan-relevant semantics.
func gadgetShape(g *gadget.Gadget) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d/", g.JmpType, g.Effect.StackDelta)
	for _, r := range g.CtrlRegs {
		sb.WriteString(r.String())
		sb.WriteByte('+')
	}
	sb.WriteByte('/')
	for _, r := range g.ClobRegs {
		sb.WriteString(r.String())
		sb.WriteByte('+')
	}
	fmt.Fprintf(&sb, "/c%d/m%d.%d", len(g.Effect.Conds), len(g.Effect.MemReads), len(g.Effect.MemWrites))
	if g.HasCond {
		sb.WriteString("/cj")
	}
	if g.Merged {
		sb.WriteString("/dj")
	}
	return sb.String()
}

// String renders the linearized chain for reports.
func (p *Plan) String() string {
	var sb strings.Builder
	for i, g := range p.Chain() {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		fmt.Fprintf(&sb, "%s", g)
	}
	return sb.String()
}
