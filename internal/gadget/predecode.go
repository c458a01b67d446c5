package gadget

import (
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Table is the per-section predecode table: one isa.Inst per byte offset of
// every executable section, decoded in a single O(n) pass and shared
// read-only by all scan workers. The walk and the fork/merge path
// enumeration then chain through the table by addr + inst.Len instead of
// re-invoking isa.Decode at every path step from every start offset — the
// extraction decode cost drops from O(n · pathLen) to O(n), and instruction
// suffixes shared between overlapping start offsets are decoded exactly
// once.
//
// Entries are stored as a flat []isa.Inst per section, indexed by byte
// offset; an entry with Len == 0 marks an offset whose bytes do not decode
// (every valid decode consumes at least one byte). Entry contents are a
// pure function of the section bytes, so the table — and everything walked
// through it — is deterministic regardless of how many workers built it.
//
// Memory: one 88-byte Inst per code byte (only stride-aligned offsets are
// decoded, but every byte keeps a slot so lookups index by address). The
// corpus binaries measure their code in tens to hundreds of KiB, so a table
// is a few MiB at most and lives only for the duration of one extraction.
// The classic count does not need decoded operands and scans a 2-byte
// countTable instead (count.go).
type Table struct {
	secs  []*sbf.Section // ascending by Addr (sbf keeps sections sorted)
	insts [][]isa.Inst   // insts[i][off] decodes secs[i].Data[off:]; Len==0 invalid

	// Single-section fast path: nearly every corpus binary has exactly one
	// executable section, and inst() is the hottest call in extraction.
	soloAddr, soloEnd uint64
	solo              []isa.Inst // nil when the binary has several sections
}

// predecodeChunk is how many byte offsets one decode job covers. Like
// chunkStrides, it is fixed so the work partition never depends on the
// worker count; unlike the scan shards, entries are independent, so the
// only requirement is a chunk big enough to amortize dispatch.
const predecodeChunk = 64 << 10

// decodeSections decodes every stride-aligned offset of secs with backend
// be, fanning fixed-size chunks across at most parallelism workers (<=1
// means serial), and hands each successful decode to put with its section
// index and byte offset. Offsets whose address is not a multiple of the
// backend's stride are never decoded: the backend refuses them anyway
// (RISC-V's instruction-alignment fault), and skipping them spares a
// DecodeError allocation per misaligned offset. in points at per-chunk
// scratch, valid only for the duration of the call; put must be safe for
// concurrent calls on distinct offsets.
func decodeSections(secs []*sbf.Section, parallelism int, be isa.Backend, put func(si, off int, in *isa.Inst)) {
	type job struct {
		si     int
		lo, hi int
	}
	var jobs []job
	for i, sec := range secs {
		for lo := 0; lo < len(sec.Data); lo += predecodeChunk {
			hi := min(lo+predecodeChunk, len(sec.Data))
			jobs = append(jobs, job{si: i, lo: lo, hi: hi})
		}
	}

	stride := uint64(be.Stride())
	par.For(parallelism, len(jobs), func(i int) {
		j := jobs[i]
		sec := secs[j.si]
		in := new(isa.Inst)
		first := j.lo + int((stride-(sec.Addr+uint64(j.lo))%stride)%stride)
		for off := first; off < j.hi; off += int(stride) {
			var err error
			*in, err = be.Decode(sec.Data[off:], sec.Addr+uint64(off))
			if err == nil {
				put(j.si, off, in)
			}
		}
	})
}

// PredecodeISA decodes every stride-aligned byte offset of bin's executable
// sections with backend be into a Table, fanning the (embarrassingly
// parallel) decode work across at most parallelism workers (<=1 means
// serial). Offsets the backend refuses to decode, and misaligned ones on
// fixed-stride ISAs, keep Len == 0 entries, so walks chained through the
// table stop exactly where a direct decode would.
func PredecodeISA(bin *sbf.Binary, parallelism int, be isa.Backend) *Table {
	t := &Table{secs: bin.ExecSections()}
	t.insts = make([][]isa.Inst, len(t.secs))
	for i, sec := range t.secs {
		t.insts[i] = make([]isa.Inst, len(sec.Data))
	}
	decodeSections(t.secs, parallelism, be, func(si, off int, in *isa.Inst) {
		t.insts[si][off] = *in
	})
	return t.finish()
}

// finish installs the single-section fast path.
func (t *Table) finish() *Table {
	if len(t.secs) == 1 {
		t.soloAddr, t.soloEnd = t.secs[0].Addr, t.secs[0].End()
		t.solo = t.insts[0]
	}
	return t
}

// inst returns the predecoded instruction at addr. Addresses outside every
// executable section, and offsets whose bytes do not decode, report false —
// exactly the cases where a direct isa.Decode would fail. The pointer (not
// a copy of the 88-byte Inst: the walk looks one up per step per path)
// points into the shared array and must be treated as read-only.
func (t *Table) inst(addr uint64) (*isa.Inst, bool) {
	if t.solo != nil {
		if addr < t.soloAddr || addr >= t.soloEnd {
			return nil, false
		}
		in := &t.solo[addr-t.soloAddr]
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
	in := &t.insts[lo][addr-t.secs[lo].Addr]
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
