package gadget

import (
	"fmt"
	"math/bits"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Table is the per-section predecode table: one isa.Inst per
// stride-aligned address of every executable section, decoded in a single
// O(n) pass and shared read-only by all scan workers. The walk and the
// fork/merge path enumeration then chain through the table by addr +
// inst.Len instead of re-invoking isa.Decode at every path step from every
// start offset — the extraction decode cost drops from O(n · pathLen) to
// O(n), and instruction suffixes shared between overlapping start offsets
// are decoded exactly once.
//
// Entries are stored as a flat []isa.Inst per section, indexed by
// strideGrid slot; an entry with Len == 0 marks an address whose bytes do
// not decode (every valid decode consumes at least one byte). Entry
// contents are a pure function of the section bytes, so the table — and
// everything walked through it — is deterministic regardless of how many
// workers built it.
//
// Memory: one 88-byte Inst per stride-aligned address, so 88 bytes per
// code byte on x64, 44 on rv64c and 22 on rv64. Obfuscated builds make
// that tens of MB: the Tigress netperf table is 21.9 MB on x64 (249 209
// code bytes) and 19.9 MB on rv64c (451 872). The table lives only for the
// duration of one extraction. The classic count does not need decoded
// operands and scans a 2-byte countTable instead (count.go).
type Table struct {
	grid  strideGrid
	secs  []*sbf.Section // ascending by Addr (sbf keeps sections sorted)
	insts [][]isa.Inst   // insts[i][slot] decodes secs[i] at that slot's address; Len==0 invalid

	// Single-section fast path: nearly every corpus binary has exactly one
	// executable section, and inst() is the hottest call in extraction.
	soloAddr, soloEnd uint64
	soloFirst         uint64     // grid index of the section's slot 0
	solo              []isa.Inst // nil when the binary has several sections
}

// strideGrid is the indexing rule both predecode tables (Table and
// countTable) share: a section keeps one slot per stride-aligned address,
// slot 0 being the first one at or after its base, because no other
// address decodes (the backends refuse them: RISC-V's
// instruction-alignment fault). Strides are powers of two, so the grid
// index of an aligned address is addr >> shift, and instruction lengths
// are stride multiples (RVC's 2 and 4 bytes at stride 2), so a chain of
// instructions advances len >> shift slots and stays on the grid.
type strideGrid struct {
	shift uint   // log2 of the stride
	mask  uint64 // stride - 1
}

func newStrideGrid(be isa.Backend) strideGrid {
	stride := be.Stride()
	shift := uint(bits.TrailingZeros(uint(stride)))
	if stride <= 0 || 1<<shift != stride {
		panic(fmt.Sprintf("gadget: %s stride %d is not a power of two", be.Name(), stride))
	}
	return strideGrid{shift: shift, mask: uint64(stride) - 1}
}

// first returns the grid index of sec's slot 0.
func (g strideGrid) first(sec *sbf.Section) uint64 { return (sec.Addr + g.mask) >> g.shift }

// slots returns how many stride-aligned addresses sec covers.
func (g strideGrid) slots(sec *sbf.Section) int {
	return int((sec.End()+g.mask)>>g.shift - g.first(sec))
}

// predecodeChunk is how many slots one decode job covers. Like
// chunkStrides, it is fixed so the work partition never depends on the
// worker count; unlike the scan shards, entries are independent, so the
// only requirement is a chunk big enough to amortize dispatch.
const predecodeChunk = 64 << 10

// decodeSections decodes every stride-aligned address of secs with
// backend be, fanning fixed-size chunks across at most parallelism workers
// (<=1 means serial), and hands each successful decode to put with its
// section index and strideGrid slot. Misaligned addresses are never
// decoded: the backend refuses them anyway, and skipping them spares a
// DecodeError allocation per misaligned offset. in points at per-chunk
// scratch, valid only for the duration of the call; put must be safe for
// concurrent calls on distinct slots.
func decodeSections(secs []*sbf.Section, grid strideGrid, parallelism int, be isa.Backend, put func(si, slot int, in *isa.Inst)) {
	type job struct {
		si     int
		lo, hi int
	}
	var jobs []job
	for i, sec := range secs {
		n := grid.slots(sec)
		for lo := 0; lo < n; lo += predecodeChunk {
			jobs = append(jobs, job{si: i, lo: lo, hi: min(lo+predecodeChunk, n)})
		}
	}

	par.For(parallelism, len(jobs), func(i int) {
		j := jobs[i]
		sec := secs[j.si]
		first := grid.first(sec)
		in := new(isa.Inst)
		for slot := j.lo; slot < j.hi; slot++ {
			addr := (first + uint64(slot)) << grid.shift
			var err error
			*in, err = be.Decode(sec.Data[addr-sec.Addr:], addr)
			if err == nil {
				put(j.si, slot, in)
			}
		}
	})
}

// PredecodeISA decodes every stride-aligned address of bin's executable
// sections with backend be into a Table, fanning the (embarrassingly
// parallel) decode work across at most parallelism workers (<=1 means
// serial). Addresses the backend refuses to decode keep Len == 0 entries,
// and misaligned ones have no entry, so walks chained through the table
// stop exactly where a direct decode would.
func PredecodeISA(bin *sbf.Binary, parallelism int, be isa.Backend) *Table {
	t := &Table{grid: newStrideGrid(be), secs: bin.ExecSections()}
	t.insts = make([][]isa.Inst, len(t.secs))
	for i, sec := range t.secs {
		t.insts[i] = make([]isa.Inst, t.grid.slots(sec))
	}
	decodeSections(t.secs, t.grid, parallelism, be, func(si, slot int, in *isa.Inst) {
		t.insts[si][slot] = *in
	})
	return t.finish()
}

// finish installs the single-section fast path.
func (t *Table) finish() *Table {
	if len(t.secs) == 1 {
		t.soloAddr, t.soloEnd = t.secs[0].Addr, t.secs[0].End()
		t.soloFirst = t.grid.first(t.secs[0])
		t.solo = t.insts[0]
	}
	return t
}

// inst returns the predecoded instruction at addr. Addresses outside every
// executable section, misaligned ones, and those whose bytes do not decode
// report false — exactly the cases where a direct isa.Decode would fail.
// The pointer (not a copy of the 88-byte Inst: the walk looks one up per
// step per path) points into the shared array and must be treated as
// read-only.
func (t *Table) inst(addr uint64) (*isa.Inst, bool) {
	if addr&t.grid.mask != 0 {
		return nil, false
	}
	if t.solo != nil {
		if addr < t.soloAddr || addr >= t.soloEnd {
			return nil, false
		}
		in := &t.solo[addr>>t.grid.shift-t.soloFirst]
		if in.Len == 0 {
			return nil, false
		}
		return in, true
	}
	// Sections are sorted by address: binary-search (hand-rolled — a
	// sort.Search closure costs more than the search on a hot path this
	// tight) for the first section ending past addr, then confirm it covers
	// addr.
	lo, hi := 0, len(t.secs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if addr >= t.secs[mid].End() {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.secs) || addr < t.secs[lo].Addr {
		return nil, false
	}
	in := &t.insts[lo][addr>>t.grid.shift-t.grid.first(t.secs[lo])]
	if in.Len == 0 {
		return nil, false
	}
	return in, true
}

// InstAt exposes table lookups for tests and the fuzz target pinning table
// entries against direct isa.Decode calls.
func (t *Table) InstAt(addr uint64) (isa.Inst, bool) {
	in, ok := t.inst(addr)
	if !ok {
		return isa.Inst{}, false
	}
	return *in, true
}
