// Package angrop re-implements the Angrop baseline (paper Section II-B):
// symbolic classification of return gadgets only, a fixed register-setting
// strategy ("it only uses pop reg; ret to assign a value to registers
// regardless of all other equivalent gadget variants"), memory writes
// through simple mov-store gadgets, and no conditional or direct-jump
// handling.
package angrop

import (
	"encoding/binary"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/baseline"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Tool is the Angrop baseline.
type Tool struct{}

var _ baseline.Tool = (*Tool)(nil)

// Name implements baseline.Tool.
func (*Tool) Name() string { return "Angrop" }

// popGadget is a classified pop-style register setter.
type popGadget struct {
	g   *gadget.Gadget
	reg isa.Reg
	// slotOff is the payload offset (from gadget entry rsp) feeding reg.
	slotOff int64
	// ripOff is the payload offset holding the next chain address.
	ripOff int64
}

// writerGadget is a "mov [rX], rY; ret" style store.
type writerGadget struct {
	g       *gadget.Gadget
	addrReg isa.Reg
	valReg  isa.Reg
	ripOff  int64
}

// Run implements baseline.Tool.
func (t *Tool) Run(bin *sbf.Binary) *baseline.Result {
	res := &baseline.Result{ToolName: t.Name()}
	be, okBE := isa.ByName(bin.ISA)
	if !okBE {
		return res
	}
	res.GadgetsTotal = gadget.CountISA(bin, 8, be)[gadget.TypeReturn]

	pool := gadget.Extract(bin, gadget.Options{ISA: bin.ISA, MaxInsts: 8, MaxForks: 1, MaxMerges: 1})

	// Classify pop-style setters: ret gadgets whose effect on one register
	// is a pure payload slot, with no conditions, merges, or dereferences.
	setters := make(map[isa.Reg][]popGadget)
	var writers []writerGadget
	var anchors []*gadget.Gadget

	for _, g := range pool.Gadgets {
		eff := g.Effect
		if g.HasCond || g.Merged || len(eff.Conds) > 0 {
			continue
		}
		switch eff.End {
		case symex.EndSyscall:
			if !eff.HasDerefs() {
				anchors = append(anchors, g)
			}
			continue
		case symex.EndRet:
		default:
			continue // angrop: return gadgets only
		}
		ripOff, ok := symex.StackCell(eff.NextRIP)
		if !ok || ripOff%8 != 0 {
			continue
		}
		if !alignedInputs(eff) {
			continue
		}
		switch {
		case !eff.HasDerefs():
			for _, r := range g.CtrlRegs {
				if off, ok := symex.StackCell(eff.Regs[r]); ok && off%8 == 0 {
					setters[r] = append(setters[r], popGadget{g: g, reg: r, slotOff: off, ripOff: ripOff})
				}
			}
		case len(eff.MemWrites) == 1 && len(eff.MemReads) == 0:
			w := eff.MemWrites[0]
			aReg, okA := symex.EntryReg(w.Addr)
			vReg, okV := symex.EntryReg(w.Val)
			if okA && okV && aReg != vReg && w.Size == 8 && cleanRegs(g) {
				writers = append(writers, writerGadget{g: g, addrReg: aReg, valReg: vReg, ripOff: ripOff})
			}
		}
	}
	for r := range setters {
		sort.Slice(setters[r], func(i, j int) bool {
			a, c := setters[r][i], setters[r][j]
			if len(a.g.ClobRegs) != len(c.g.ClobRegs) {
				return len(a.g.ClobRegs) < len(c.g.ClobRegs)
			}
			return a.g.Location < c.g.Location
		})
	}
	sort.Slice(anchors, func(i, j int) bool {
		if len(anchors[i].ClobRegs) != len(anchors[j].ClobRegs) {
			return len(anchors[i].ClobRegs) < len(anchors[j].ClobRegs)
		}
		return anchors[i].NumInsts() < anchors[j].NumInsts()
	})

	for _, goal := range planner.GoalsForISA(pool.ISA) {
		if chain, ok := t.buildChain(bin, goal, setters, writers, anchors); ok {
			res.Chains = append(res.Chains, chain)
		}
	}
	res.FillUsed()
	return res
}

// buildChain implements angrop's fixed strategy: set each goal register via
// a pop gadget (writing "/bin/sh" to .data first when a pointer is needed),
// then fire the syscall gadget.
func (t *Tool) buildChain(bin *sbf.Binary, goal planner.Goal,
	setters map[isa.Reg][]popGadget, writers []writerGadget, anchors []*gadget.Gadget) (baseline.Chain, bool) {

	chain := baseline.Chain{Goal: goal.Name}

	// Resolve goal register values; pointers go through a .data write
	// staged by a separate pre-chain (its own register values must not
	// leak into the final goal assignments).
	goalVals := make(map[isa.Reg]uint64)
	type preStep struct {
		set popGadget
		val uint64
	}
	var pre []preStep
	var preWriter *writerGadget
	data := bin.Section(".data")
	for r, spec := range goal.Regs {
		switch spec.Kind {
		case planner.SpecConst:
			goalVals[r] = spec.Value
		case planner.SpecPointer:
			if data == nil || len(writers) == 0 || len(spec.Data) > 8 {
				return chain, false
			}
			addr := data.End() - 16
			w := writers[0]
			aSet := pickSetter(setters, w.addrReg)
			vSet := pickSetter(setters, w.valReg)
			if aSet == nil || vSet == nil {
				return chain, false
			}
			var word [8]byte
			copy(word[:], spec.Data)
			pre = append(pre,
				preStep{set: *aSet, val: addr},
				preStep{set: *vSet, val: binary.LittleEndian.Uint64(word[:])},
			)
			preWriter = &w
			goalVals[r] = addr
		}
	}

	// Find an anchor that leaves every goal register untouched.
	var anchor *gadget.Gadget
	for _, a := range anchors {
		ok := true
		for r := range goal.Regs {
			if int(r) >= len(a.Effect.Regs) {
				ok = false
				break
			}
			if src, entry := symex.EntryReg(a.Effect.Regs[r]); !entry || src != r {
				ok = false
				break
			}
		}
		if ok {
			anchor = a
			break
		}
	}
	if anchor == nil {
		return chain, false
	}

	// One setter per goal register; order them so no setter clobbers an
	// already-set register (try all permutations; angrop's set_regs solves
	// an equivalent dependency problem).
	var regs []isa.Reg
	for r := range goal.Regs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	var chosen []popGadget
	for _, r := range regs {
		s := pickSetter(setters, r)
		if s == nil {
			return chain, false
		}
		chosen = append(chosen, *s)
	}
	ordered, ok := orderSetters(chosen)
	if !ok {
		return chain, false
	}

	// Assemble: [/bin/sh write] + setters + syscall.
	payloadSteps := make([]payloadStep, 0, len(pre)+len(ordered)+2)
	for _, s := range pre {
		payloadSteps = append(payloadSteps, payloadStep{g: s.set.g, slotOff: s.set.slotOff, ripOff: s.set.ripOff, val: s.val})
	}
	if preWriter != nil {
		payloadSteps = append(payloadSteps, payloadStep{g: preWriter.g, slotOff: -1, ripOff: preWriter.ripOff})
	}
	for _, s := range ordered {
		payloadSteps = append(payloadSteps, payloadStep{g: s.g, slotOff: s.slotOff, ripOff: s.ripOff, val: goalVals[s.reg]})
	}
	payloadSteps = append(payloadSteps, payloadStep{g: anchor, slotOff: -1, ripOff: -1})

	bytes, ok := buildPayload(payloadSteps)
	if !ok {
		return chain, false
	}
	if !baseline.VerifyBytes(bin, bytes, goal) {
		return chain, false
	}
	chain.Verified = true
	for _, s := range payloadSteps {
		chain.Gadgets = append(chain.Gadgets, s.g)
	}
	return chain, true
}

// payloadStep is one gadget with its slot assignment.
type payloadStep struct {
	g       *gadget.Gadget
	slotOff int64 // offset of the value slot (-1 if none)
	ripOff  int64 // offset of the next-address slot (-1 for the final anchor)
	val     uint64
}

// buildPayload lays the chain words out: each gadget's entry rsp advances by
// its stack delta; slots not otherwise assigned are filler.
func buildPayload(steps []payloadStep) ([]byte, bool) {
	var words []uint64
	// Chain cursor: index of the word holding the *current* gadget address.
	cur := 0
	words = append(words, 0) // placeholder for first gadget address
	for _, st := range steps {
		words[cur] = st.g.Location
		base := cur + 1 // entry rsp in words
		delta := st.g.Effect.StackDelta
		if st.ripOff < 0 {
			// Terminal syscall anchor: consumes nothing further.
			if delta < 0 || delta%8 != 0 {
				return nil, false
			}
			break
		}
		if delta%8 != 0 || delta < 8 {
			return nil, false
		}
		for len(words) < base+int(delta/8) {
			words = append(words, 0x4141414141414141)
		}
		if st.slotOff >= 0 {
			words[base+int(st.slotOff/8)] = st.val
		}
		cur = base + int(st.ripOff/8)
	}
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf, true
}

// orderSetters finds a permutation where no setter clobbers a previously
// set register.
func orderSetters(setters []popGadget) ([]popGadget, bool) {
	n := len(setters)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var try func(k int) bool
	used := make([]bool, n)
	out := make([]popGadget, 0, n)
	try = func(k int) bool {
		if k == n {
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// setters[i] must not clobber any register already set.
			ok := true
			for _, prev := range out {
				for _, c := range setters[i].g.ClobRegs {
					if c == prev.reg {
						ok = false
					}
				}
			}
			if !ok {
				continue
			}
			used[i] = true
			out = append(out, setters[i])
			if try(k + 1) {
				return true
			}
			used[i] = false
			out = out[:len(out)-1]
		}
		return false
	}
	if !try(0) {
		return nil, false
	}
	return out, true
}

func pickSetter(setters map[isa.Reg][]popGadget, r isa.Reg) *popGadget {
	if list := setters[r]; len(list) > 0 {
		return &list[0]
	}
	return nil
}

// alignedInputs requires all payload slots to be 8-byte sized and aligned
// (angrop's simple chain layout).
func alignedInputs(eff *symex.Effect) bool {
	for off, size := range eff.Inputs {
		if size != 8 || off%8 != 0 || off < 0 {
			return false
		}
	}
	return eff.StackDelta >= 8 && eff.StackDelta%8 == 0
}

// cleanRegs requires the writer gadget not to produce unplannable register
// effects (anything beyond slots/copies is fine for our purposes since the
// writer runs before the setters).
func cleanRegs(g *gadget.Gadget) bool {
	return alignedInputs(g.Effect)
}
