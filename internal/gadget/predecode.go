package gadget

import (
	"fmt"
	"math/bits"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Table is the predecode table every extraction walk chains through. Each
// stride-aligned address of every executable section is decoded once, in
// the same pass that builds the count table, into a slot: the
// instruction's countEntry, its straight-line run, and — only where a walk
// can fetch it — the index of its decoded isa.Inst in one dense slice.
//
// A slot's run is how many ClassOther instructions its fall-through chain
// passes before the first slot of another class. A walk that arrives with
// p instructions on its path and finds p+run >= MaxInsts would spend its
// whole budget on those straight-line instructions before the next control
// transfer, so the walker returns at once: exactly where the step-by-step
// walk would have stopped, with nothing found. A chain that first meets an
// undecodable or trap slot can never end in a gadget and is dead. A chain
// that runs off the end of its section has an unknown run, stored as 0, so
// the walker steps into an adjacent section as it always did. Runs
// saturate at runCap, which only ever understates a run.
//
// Only slots that are not dead and whose run is below MaxInsts keep an
// isa.Inst: no walk fetches any other slot. On the obfuscated netperf
// builds that is 13–26% of the slots, so the table costs 8 bytes per slot
// plus 88 per fetchable slot: building it for Tigress netperf allocates
// 7.7 MB on x64 (249 209 code bytes) and 5.0 MB on rv64c (451 872), where
// an Inst in every slot would take 21.9 and 19.9 MB. Every entry is a pure
// function of the section bytes and MaxInsts, so the table, and everything
// walked through it, is the same at every worker count.
type Table struct {
	grid  strideGrid
	secs  []*sbf.Section // ascending by Addr (sbf keeps sections sorted)
	slots [][]slot       // slots[i][k] describes secs[i] at its k-th stride-aligned address
	insts []isa.Inst     // the decoded instructions of fetchable slots, in address order

	// Single-section fast path: nearly every corpus binary has exactly one
	// executable section, and inst() is the hottest call in extraction.
	soloAddr, soloEnd uint64
	soloFirst         uint64 // grid index of the section's slot 0
	solo              []slot // nil when the binary has several sections
}

// slot is one Table entry, 8 bytes; the 88-byte isa.Inst of a fetchable
// slot lives in Table.insts.
type slot struct {
	countEntry
	run  uint8  // straight-line run; runDead, or at most runCap
	inst uint32 // 1 + index into Table.insts; 0 when no walk fetches the slot
}

const (
	// runCap is the largest stored run: a saturated run means "at least
	// runCap", which can only make the walker's cut-off later, never
	// wrong, and leaves the slot's instruction in the table when MaxInsts
	// exceeds it.
	runCap = 254
	// runDead marks a slot whose fall-through chain reaches an undecodable
	// or trap slot before any other non-straight-line one.
	runDead = 255
)

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

// slotAddr returns the address of sec's slot-th slot.
func (g strideGrid) slotAddr(sec *sbf.Section, slot int) uint64 {
	return (g.first(sec) + uint64(slot)) << g.shift
}

// predecodeChunk is how many slots one decode job covers. Like
// chunkStrides, it is fixed so the work partition never depends on the
// worker count; unlike the scan shards, entries are independent, so the
// only requirement is a chunk big enough to amortize dispatch.
const predecodeChunk = 64 << 10

// forChunks fans fixed-size slot ranges [lo, hi) of every section of secs
// across at most parallelism workers (<=1 means serial). fn must be safe
// for concurrent calls on distinct ranges.
func forChunks(secs []*sbf.Section, grid strideGrid, parallelism int, fn func(si, lo, hi int)) {
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
	par.For(parallelism, len(jobs), func(i int) { fn(jobs[i].si, jobs[i].lo, jobs[i].hi) })
}

// decodeSections decodes every stride-aligned address of secs once with
// backend be and hands the countEntry of each one that decodes to put,
// with its section index and strideGrid slot; the others keep their zero
// entry. Misaligned addresses are never decoded: the backend refuses them
// anyway. Failures go through isa.Backend.TryDecode, so they allocate no
// error. put must be safe for concurrent calls on distinct slots.
func decodeSections(secs []*sbf.Section, grid strideGrid, parallelism int, be isa.Backend, put func(si, slot int, e countEntry)) {
	forChunks(secs, grid, parallelism, func(si, lo, hi int) {
		sec := secs[si]
		in := new(isa.Inst)
		for slot := lo; slot < hi; slot++ {
			addr := grid.slotAddr(sec, slot)
			var ok bool
			if *in, ok = be.TryDecode(sec.Data[addr-sec.Addr:], addr); ok {
				put(si, slot, countEntry{len: in.Len, class: be.Classify(in)})
			}
		}
	})
}

// PredecodeISA builds bin's predecode Table for backend be at the default
// MaxInsts, fanning the decode across at most parallelism workers (<=1
// means serial).
func PredecodeISA(bin *sbf.Binary, parallelism int, be isa.Backend) *Table {
	return predecode(bin, parallelism, be, defaultMaxInsts)
}

// predecode builds bin's Table for walks of at most maxInsts instructions:
// one decode of every slot into its countEntry, one reverse pass per
// section for the runs, then a second decode of only the fetchable slots
// into the dense instruction slice.
func predecode(bin *sbf.Binary, parallelism int, be isa.Backend, maxInsts int) *Table {
	t := &Table{grid: newStrideGrid(be), secs: bin.ExecSections()}
	t.slots = make([][]slot, len(t.secs))
	for i, sec := range t.secs {
		t.slots[i] = make([]slot, t.grid.slots(sec))
	}
	decodeSections(t.secs, t.grid, parallelism, be, func(si, k int, e countEntry) {
		t.slots[si][k].countEntry = e
	})

	fetchable := 0
	for _, ss := range t.slots {
		t.link(ss)
		for k := range ss {
			if s := &ss[k]; s.run != runDead && int(s.run) < maxInsts {
				fetchable++
				s.inst = uint32(fetchable)
			}
		}
	}
	t.insts = make([]isa.Inst, fetchable)
	forChunks(t.secs, t.grid, parallelism, func(si, lo, hi int) {
		sec := t.secs[si]
		for k := lo; k < hi; k++ {
			if i := t.slots[si][k].inst; i != 0 {
				addr := t.grid.slotAddr(sec, k)
				t.insts[i-1], _ = be.TryDecode(sec.Data[addr-sec.Addr:], addr)
			}
		}
	})

	if len(t.secs) == 1 {
		t.soloAddr, t.soloEnd = t.secs[0].Addr, t.secs[0].End()
		t.soloFirst = t.grid.first(t.secs[0])
		t.solo = t.slots[0]
	}
	return t
}

// link fills the run of every slot of one section, last slot first, so
// each slot's fall-through successor is already done. The class decides
// what is straight-line for both the runs and the walker (walker.walk
// steps over exactly the ClassOther slots), so the cut-off can never skip
// a path the walk would have taken.
func (t *Table) link(ss []slot) {
	for k := len(ss) - 1; k >= 0; k-- {
		s := &ss[k]
		switch {
		case s.len == 0 || s.class == isa.ClassTrap:
			s.run = runDead
		case s.class != isa.ClassOther:
			s.run = 0
		default:
			next := k + int(s.len>>t.grid.shift)
			if next >= len(ss) {
				s.run = 0 // leaves the section: unknown
				break
			}
			switch n := ss[next]; {
			case n.run == runDead:
				s.run = runDead
			case n.run == 0 && n.class == isa.ClassOther:
				s.run = 0 // unknown, like its successor
			default:
				s.run = min(n.run+1, runCap)
			}
		}
	}
}

// inst returns the predecoded instruction at addr with its slot, or nil
// when no walk can fetch addr: it is outside every executable section,
// misaligned, undecodable, on a dead chain, or its run alone exhausts
// MaxInsts. The pointer (not a copy of the 88-byte Inst: the walk looks
// one up per step per path) points into the shared slice and must be
// treated as read-only.
func (t *Table) inst(addr uint64) (*isa.Inst, slot) {
	if addr&t.grid.mask != 0 {
		return nil, slot{}
	}
	var s slot
	if t.solo != nil {
		if addr < t.soloAddr || addr >= t.soloEnd {
			return nil, slot{}
		}
		s = t.solo[addr>>t.grid.shift-t.soloFirst]
	} else {
		// Sections are sorted by address: binary-search (hand-rolled — a
		// sort.Search closure costs more than the search on a hot path
		// this tight) for the first section ending past addr, then confirm
		// it covers addr.
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
			return nil, slot{}
		}
		s = t.slots[lo][addr>>t.grid.shift-t.grid.first(t.secs[lo])]
	}
	if s.inst == 0 {
		return nil, slot{}
	}
	return &t.insts[s.inst-1], s
}
