package gadget

import (
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Run values of a TableSlot, as the table stores them.
const (
	RunCap  = runCap
	RunDead = runDead
)

// TableSlot is one predecode-table slot as the table tests see it.
type TableSlot struct {
	Len     uint8
	Class   isa.Class
	Run     int      // straight-line run; RunDead, or at most RunCap
	Inst    isa.Inst // valid when HasInst
	HasInst bool
}

// PredecodeMax builds the Table Extract builds for walks of at most
// maxInsts instructions.
func PredecodeMax(bin *sbf.Binary, parallelism int, be isa.Backend, maxInsts int) *Table {
	return predecode(bin, parallelism, be, maxInsts)
}

// SlotAt returns the slot holding addr; false when no slot does (outside
// every executable section, or misaligned).
func (t *Table) SlotAt(addr uint64) (TableSlot, bool) {
	if addr&t.grid.mask != 0 {
		return TableSlot{}, false
	}
	for i, sec := range t.secs {
		if addr < sec.Addr || addr >= sec.End() {
			continue
		}
		s := t.slots[i][addr>>t.grid.shift-t.grid.first(sec)]
		ts := TableSlot{Len: s.len, Class: s.class, Run: int(s.run)}
		in, _ := t.inst(addr)
		if in != nil {
			ts.Inst, ts.HasInst = *in, true
		}
		return ts, true
	}
	return TableSlot{}, false
}
