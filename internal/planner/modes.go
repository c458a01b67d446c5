package planner

import (
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// regReq is a requirement on a register at a gadget's entry.
type regReq struct {
	reg  isa.Reg
	spec ValueSpec
}

// varClass partitions the variables of an expression.
type varClass struct {
	inputs bool      // stack-input or deref variables (attacker payload cells)
	regs   []isa.Reg // initial-register variables, in variable-name order
	other  bool      // flags, opaque vars, the stack pointer: not plannable
}

func classifyVars(nodes ...*expr.Node) varClass {
	var roles expr.Roles
	for _, n := range nodes {
		roles |= n.Roles()
	}
	// The stack pointer is managed by the chain layout itself and can never
	// be a planning requirement.
	vc := varClass{
		inputs: roles&symex.AttackerRoles != 0,
		other:  roles&^(symex.AttackerRoles|1<<expr.RoleReg) != 0,
	}
	if roles&(1<<expr.RoleReg) != 0 {
		for _, v := range expr.VarNodes(nodes...) {
			if v.Role == expr.RoleReg {
				vc.regs = append(vc.regs, isa.Reg(v.Val))
			}
		}
	}
	return vc
}

// invertForm recognizes invertible single-variable expressions:
// v, v+c, v^c, ~v, -v. It returns the variable and a concrete inverse for
// constant targets.
func invertForm(e *expr.Node) (v *expr.Node, inverse func(uint64) uint64, ok bool) {
	id := func(x uint64) uint64 { return x }
	switch e.Kind {
	case expr.KindVar:
		return e, id, true
	case expr.KindAdd:
		if e.Args[0].Kind == expr.KindVar && e.Args[1].IsConst() {
			c := e.Args[1].Val
			return e.Args[0], func(x uint64) uint64 { return x - c }, true
		}
	case expr.KindXor:
		if e.Args[0].Kind == expr.KindVar && e.Args[1].IsConst() {
			c := e.Args[1].Val
			return e.Args[0], func(x uint64) uint64 { return x ^ c }, true
		}
	case expr.KindNot:
		if e.Args[0].Kind == expr.KindVar {
			return e.Args[0], func(x uint64) uint64 { return ^x }, true
		}
	case expr.KindNeg:
		if e.Args[0].Kind == expr.KindVar {
			return e.Args[0], func(x uint64) uint64 { return -x }, true
		}
	}
	return nil, nil, false
}

// provideResult describes how a gadget's exit can satisfy reg=spec.
type provideResult struct {
	// entryReqs are requirements pushed onto the gadget's entry state.
	entryReqs []regReq
	// demands are slot equations to discharge at concretization.
	demands []SlotDemand
}

// provides analyzes whether gadget g's exit state can satisfy reg=spec,
// and at what cost. The Step field of returned demands is unfilled.
func provides(g *gadget.Gadget, reg isa.Reg, spec ValueSpec) (provideResult, bool) {
	if int(reg) >= len(g.Effect.Regs) {
		return provideResult{}, false // register unknown to this backend
	}
	e := g.Effect.Regs[reg]
	if src, ok := symex.EntryReg(e); ok && src == reg {
		// Unchanged register (its exit value is its own entry variable):
		// not a producer.
		return provideResult{}, false
	}
	vc := classifyVars(e)
	if vc.other {
		return provideResult{}, false
	}

	// Constant exit value.
	if e.IsConst() {
		if spec.Kind == SpecConst && spec.Value == e.Val {
			return provideResult{}, true
		}
		return provideResult{}, false
	}

	// Entirely payload-determined.
	if len(vc.regs) == 0 {
		switch spec.Kind {
		case SpecArbitrary:
			// Must be invertible so any target is reachable.
			if v, _, ok := invertForm(e); ok && v.Roles()&symex.AttackerRoles != 0 {
				return provideResult{demands: []SlotDemand{{Expr: e, Spec: spec}}}, true
			}
			return provideResult{}, false
		default:
			// Constant or pointer target: defer Eq(e, target) to the solver.
			return provideResult{demands: []SlotDemand{{Expr: e, Spec: spec}}}, true
		}
	}

	// Single-register invertible transform: regress the spec upstream.
	if len(vc.regs) == 1 && !vc.inputs {
		// The one variable is a register other than the stack pointer.
		v, inverse, ok := invertForm(e)
		if !ok {
			return provideResult{}, false
		}
		src := isa.Reg(v.Val)
		switch spec.Kind {
		case SpecConst:
			return provideResult{entryReqs: []regReq{{src, ConstSpec(inverse(spec.Value))}}}, true
		case SpecArbitrary:
			return provideResult{entryReqs: []regReq{{src, ArbitrarySpec()}}}, true
		case SpecPointer:
			// Only identity copies can carry a pointer whose concrete value
			// is unknown until concretization.
			if e.Kind == expr.KindVar {
				return provideResult{entryReqs: []regReq{{src, spec}}}, true
			}
			return provideResult{}, false
		}
	}

	// Mixed register/input expressions: out of the planner's fragment.
	return provideResult{}, false
}

// stepEntryReqs computes the requirements a gadget instance imposes by
// itself: pre-conditions from conditional jumps passed through, and control
// of the jump-target register for indirect-ending gadgets. The bool reports
// whether the gadget is usable as a plan step at all.
func stepEntryReqs(g *gadget.Gadget) ([]regReq, bool) {
	var reqs []regReq
	seen := make(map[isa.Reg]bool)

	// Reads below the gadget's entry rsp hit victim stack the payload does
	// not cover; such gadgets cannot be driven.
	for off := range g.Effect.Inputs {
		if off < 0 {
			return nil, false
		}
	}

	for _, cond := range g.Effect.Conds {
		vc := classifyVars(cond)
		if vc.other {
			return nil, false // depends on unmodeled flag bits
		}
		// Every entry register the condition mentions must be controllable;
		// the condition itself is re-instantiated and solved during
		// concretization.
		for _, r := range vc.regs {
			if !seen[r] {
				seen[r] = true
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		}
	}

	// Controlled-memory dereferences require every register in the address
	// expression to be attacker-settable (the address is pinned to scratch
	// payload memory at concretization).
	for _, acc := range g.Effect.MemReads {
		vc := classifyVars(acc.Addr)
		if vc.other {
			return nil, false
		}
		for _, r := range vc.regs {
			if !seen[r] {
				seen[r] = true
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		}
	}
	for _, acc := range g.Effect.MemWrites {
		vc := classifyVars(acc.Addr)
		if vc.other {
			return nil, false
		}
		for _, r := range vc.regs {
			if !seen[r] {
				seen[r] = true
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		}
	}

	switch g.Effect.End {
	case symex.EndJmpInd, symex.EndCallInd:
		rip := g.Effect.NextRIP
		vc := classifyVars(rip)
		if vc.other {
			return nil, false
		}
		switch {
		case len(vc.regs) == 0:
			// Payload-determined target: solved at concretization.
		case len(vc.regs) == 1 && !vc.inputs:
			if _, _, ok := invertForm(rip); !ok {
				return nil, false
			}
			r := vc.regs[0]
			if !seen[r] {
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		default:
			return nil, false
		}
	}
	return reqs, true
}

// clobbers reports whether step s (a gadget) overwrites reg.
func clobbers(g *gadget.Gadget, reg isa.Reg) bool {
	for _, r := range g.ClobRegs {
		if r == reg {
			return true
		}
	}
	return false
}
