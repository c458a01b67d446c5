package symex

import (
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// Executor symbolically executes gadget paths against one Builder as a
// cursor: Reset puts the machine at the entry state, Advance runs one
// non-final step, Finish runs the final step and summarizes the path into
// an Effect. Save and Restore checkpoint the cursor, so paths that share a
// prefix — the fork siblings of one gadget walk — run the shared steps
// once. Exec is the same cursor run over a whole path from the entry
// state.
//
// A fresh State per path — two maps, several slices — would dominate GC
// time on the cold extraction path (hundreds of thousands of candidate
// paths, most of them rejected as unsupported). The executor keeps one
// State: scratch slices are truncated in place, and the entry
// register/flag variable nodes — which the builder interns, so they are
// the same pointers for every path — are cached once at construction.
//
// Reuse is invisible in the results: Finish copies the scratch slices into
// each returned Effect and rebuilds its maps, so effects produced by a
// reused or restored executor are structurally identical (node-for-node,
// the builder interning both) to those a fresh one would produce.
//
// An Executor is not safe for concurrent use; extraction gives each shard
// worker its own, bound to the shard's private builder.
type Executor struct {
	st State

	entryRegs                                   []*expr.Node
	entryZF, entrySF, entryOF, entryCF, entryPF *expr.Node
}

// Mark is a saved cursor position: the machine state after some prefix of
// a path. Stack writes are updated in place, so a mark copies them; every
// other collection only grows along a path, so a mark keeps its length.
// A Mark reuses its own buffers across Saves.
type Mark struct {
	regs                               []*expr.Node
	zf, sf, of, cf, pf                 *expr.Node
	writes                             []stackWrite
	inputs, memReads, memWrites, conds int
	opaque                             int
}

// NewExecutorISA returns an executor bound to b for a backend.
func NewExecutorISA(b *expr.Builder, be isa.Backend) *Executor {
	ex := &Executor{}
	ex.entryRegs = EntryRegs(b, be)
	ex.entryZF = b.Var("zf0", expr.BoolWidth, expr.RoleOther, 0)
	ex.entrySF = b.Var("sf0", expr.BoolWidth, expr.RoleOther, 0)
	ex.entryOF = b.Var("of0", expr.BoolWidth, expr.RoleOther, 0)
	ex.entryCF = b.Var("cf0", expr.BoolWidth, expr.RoleOther, 0)
	ex.entryPF = b.Var("pf0", expr.BoolWidth, expr.RoleOther, 0)
	ex.st.B = b
	ex.st.sp = be.SP()
	ex.st.link, ex.st.hasLink = be.LinkReg()
	ex.st.zero, ex.st.hasZero = be.ZeroReg()
	return ex
}

// Exec symbolically executes the steps, which must end with a control
// transfer, and returns the gadget's effect, reusing the executor's
// scratch state.
func (ex *Executor) Exec(steps []Step) (*Effect, error) {
	ex.Reset()
	if len(steps) == 0 {
		return nil, errNoTerminal
	}
	n := len(steps) - 1
	for i := range steps[:n] {
		if err := ex.Advance(&steps[i].Inst, steps[i].Taken); err != nil {
			return nil, err
		}
	}
	return ex.Finish(&steps[n].Inst, steps[n].Taken)
}

// Reset puts the cursor at the entry state of a new path.
func (ex *Executor) Reset() {
	s := &ex.st
	// Reuse the Regs backing array across paths; Finish copies it into each
	// Effect, so resetting it here never corrupts earlier results.
	s.Regs = append(s.Regs[:0], ex.entryRegs...)
	s.ZF, s.SF, s.OF, s.CF, s.PF = ex.entryZF, ex.entrySF, ex.entryOF, ex.entryCF, ex.entryPF
	s.rsp0 = ex.entryRegs[s.sp]
	// stackVars and vc persist across paths: they cache interned nodes and
	// traversal scratch, not per-path state.
	s.writes = s.writes[:0]
	s.inputs = s.inputs[:0]
	s.memReads = s.memReads[:0]
	s.memWrites = s.memWrites[:0]
	s.conds = s.conds[:0]
	s.nextRIP = nil
	s.endKind = EndNone
	s.opaque = 0
}

// Advance runs one step that is not the path's last. A step that transfers
// control is unsupported here: the path continues after it.
func (ex *Executor) Advance(in *isa.Inst, taken bool) error {
	s := &ex.st
	if err := s.step(in, taken, false); err != nil {
		return err
	}
	if s.endKind != EndNone {
		return errEarlyTransfer
	}
	return nil
}

// Finish runs the path's final step, which must transfer control, and
// returns the path's effect.
func (ex *Executor) Finish(in *isa.Inst, taken bool) (*Effect, error) {
	s := &ex.st
	if err := s.step(in, taken, true); err != nil {
		return nil, err
	}
	return s.effect()
}

// Save records the cursor's position in m.
func (ex *Executor) Save(m *Mark) {
	s := &ex.st
	m.regs = append(m.regs[:0], s.Regs...)
	m.zf, m.sf, m.of, m.cf, m.pf = s.ZF, s.SF, s.OF, s.CF, s.PF
	m.writes = append(m.writes[:0], s.writes...)
	m.inputs, m.memReads, m.memWrites, m.conds = len(s.inputs), len(s.memReads), len(s.memWrites), len(s.conds)
	m.opaque = s.opaque
}

// Restore moves the cursor back to a position saved by Save, after any
// number of Advance calls, a failed step or a Finish. Marks nest like a
// stack: restoring m and advancing past it invalidates every mark saved
// after m.
func (ex *Executor) Restore(m *Mark) {
	s := &ex.st
	s.Regs = append(s.Regs[:0], m.regs...)
	s.ZF, s.SF, s.OF, s.CF, s.PF = m.zf, m.sf, m.of, m.cf, m.pf
	s.writes = append(s.writes[:0], m.writes...)
	s.inputs = s.inputs[:m.inputs]
	s.memReads = s.memReads[:m.memReads]
	s.memWrites = s.memWrites[:m.memWrites]
	s.conds = s.conds[:m.conds]
	s.nextRIP = nil
	s.endKind = EndNone
	s.opaque = m.opaque
}
