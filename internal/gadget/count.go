package gadget

import (
	"runtime"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// countEntry is one slot of a countTable, and the head of every Table
// slot: the decoded length (0 when the address does not decode) and the
// instruction's gadget-boundary class. Two bytes, against an 88-byte
// isa.Inst: the count scan needs nothing else of the instruction.
type countEntry struct {
	len   uint8
	class isa.Class
}

// countTable is the classic scan's predecode table: one countEntry per
// strideGrid slot of each executable section, parallel to
// bin.ExecSections(), indexed like Table.
type countTable [][]countEntry

// predecodeCount classifies every stride-aligned address of secs once,
// through the same decode pass that fills a Table's slots.
func predecodeCount(secs []*sbf.Section, grid strideGrid, parallelism int, be isa.Backend) countTable {
	t := make(countTable, len(secs))
	for i, sec := range secs {
		t[i] = make([]countEntry, grid.slots(sec))
	}
	decodeSections(secs, grid, parallelism, be, func(si, slot int, e countEntry) {
		t[si][slot] = e
	})
	return t
}

// CountISA performs the cheap classic scan used for Fig. 1 / Table I
// numbers against backend be, decoding on runtime.GOMAXPROCS(0) workers:
// decode from every byte offset until the first branch instruction and
// classify it. No symbolic execution, no merging, no forking — this mirrors
// what syntactic tools such as ROPGadget count. The scan chains through a
// count table, so each code byte is decoded and classified once instead of
// once per covering window.
func CountISA(bin *sbf.Binary, maxInsts int, be isa.Backend) map[JmpType]int {
	return CountParallel(bin, maxInsts, be, 0)
}

// CountParallel is CountISA with the table decode fanned across at most
// parallelism workers (0 selects runtime.GOMAXPROCS(0), 1 decodes
// serially); the counts are identical at every worker count. Only
// stride-aligned offsets decode, so on fixed-stride backends only aligned
// chains count — exactly the aligned-decode property that shrinks the
// RISC-V surface.
func CountParallel(bin *sbf.Binary, maxInsts int, be isa.Backend, parallelism int) map[JmpType]int {
	if maxInsts == 0 {
		maxInsts = 10
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	grid := newStrideGrid(be)
	t := predecodeCount(bin.ExecSections(), grid, parallelism, be)
	var byType [TypeSyscall + 1]int
	for _, ents := range t {
		for slot := range ents {
			pos := slot
			hasCond := false
			for n := 0; n < maxInsts && pos < len(ents); n++ {
				e := ents[pos]
				if e.len == 0 {
					break
				}
				pos += int(e.len) >> grid.shift
				var jt JmpType
				switch e.class {
				case isa.ClassRet:
					jt = TypeReturn
				case isa.ClassSyscall:
					jt = TypeSyscall
				case isa.ClassJmpDir:
					jt = TypeUDJ
					if hasCond {
						jt = TypeCDJ
					}
				case isa.ClassJmpInd, isa.ClassCallInd:
					jt = TypeUIJ
					if hasCond {
						jt = TypeCIJ
					}
				case isa.ClassCallDir:
					// Direct call: classic scanners stop without counting.
					jt = TypeInvalid
				case isa.ClassCondBr:
					hasCond = true
					continue
				default:
					continue
				}
				byType[jt]++
				break
			}
		}
	}
	counts := make(map[JmpType]int)
	for jt, n := range byType {
		if JmpType(jt) != TypeInvalid && n > 0 {
			counts[JmpType(jt)] = n
		}
	}
	return counts
}

// TotalCount sums a CountISA result.
func TotalCount(counts map[JmpType]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
