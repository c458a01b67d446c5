package symex

import (
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// Executor symbolically executes gadget paths against one Builder, reusing
// the per-path machine state between runs. A fresh State per path — two
// maps, several slices — would dominate GC time on the cold extraction
// path (hundreds of thousands of candidate paths, most of them rejected as
// unsupported). The executor keeps one State and resets it: scratch slices
// are truncated in place, and the entry register/flag variable nodes —
// which the builder interns, so they are the same pointers for every path —
// are cached once at construction.
//
// Reuse is invisible in the results: run() copies the scratch slices into
// each returned Effect and rebuilds its maps, so effects produced by a
// reused executor are structurally identical (node-for-node, the builder
// interning both) to those a fresh one would produce.
//
// An Executor is not safe for concurrent use; extraction gives each shard
// worker its own, bound to the shard's private builder.
type Executor struct {
	st State

	entryRegs                                   []*expr.Node
	entryZF, entrySF, entryOF, entryCF, entryPF *expr.Node
}

// NewExecutorISA returns an executor bound to b for a backend.
func NewExecutorISA(b *expr.Builder, be isa.Backend) *Executor {
	ex := &Executor{}
	ex.entryRegs = EntryRegs(b, be)
	ex.entryZF = b.Var("zf0", expr.BoolWidth)
	ex.entrySF = b.Var("sf0", expr.BoolWidth)
	ex.entryOF = b.Var("of0", expr.BoolWidth)
	ex.entryCF = b.Var("cf0", expr.BoolWidth)
	ex.entryPF = b.Var("pf0", expr.BoolWidth)
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
	s := &ex.st
	// Reuse the Regs backing array across paths; run() copies it into each
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
	return run(s, steps)
}
