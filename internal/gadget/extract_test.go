package gadget_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// refWalker is the extraction walk without a predecode table: from every
// stride-th offset of every executable section it decodes each step afresh
// with the backend's Decode, forks at conditional branches, follows direct
// jumps and calls, and stops at traps, undecodable bytes and MaxInsts. It
// counts every complete path and runs each one that can continue a chain
// through symbolic execution from scratch, so its Stats are what Extract's
// must be, and its supported paths are Extract's pool. No path is walked
// twice: the paths from one start are distinct leaves of one DFS tree, and
// the walk fails the test if that ever stops holding.
type refWalker struct {
	t                             *testing.T
	bin                           *sbf.Binary
	be                            isa.Backend
	maxInsts, maxForks, maxMerges int
	ex                            *symex.Executor
	seen                          map[string]bool
	start                         uint64
	stats                         gadget.Stats
	pooled                        []pooledPath
}

// pooledPath is the part of a pooled gadget that the walk alone decides.
type pooledPath struct {
	Location uint64
	Len      int
	Steps    []symex.Step
}

func refExtract(t *testing.T, bin *sbf.Binary, be isa.Backend, maxInsts int) (gadget.Stats, []pooledPath) {
	w := &refWalker{
		t: t, bin: bin, be: be, maxInsts: maxInsts, maxForks: 2, maxMerges: 3,
		ex:    symex.NewExecutorISA(expr.NewBuilder(), be),
		seen:  make(map[string]bool),
		stats: gadget.Stats{ByType: make(map[gadget.JmpType]int)},
	}
	for _, sec := range bin.ExecSections() {
		for off := 0; off < len(sec.Data); off += be.Stride() {
			w.stats.ScannedOffsets++
			w.start = sec.Addr + uint64(off)
			w.walk(w.start, nil)
		}
	}
	// The pool's order: by (addr, len), walk order among equal keys.
	sort.SliceStable(w.pooled, func(i, j int) bool {
		if w.pooled[i].Location != w.pooled[j].Location {
			return w.pooled[i].Location < w.pooled[j].Location
		}
		return w.pooled[i].Len < w.pooled[j].Len
	})
	return w.stats, w.pooled
}

// decode decodes the instruction at addr, wherever in the executable
// sections it lies.
func (w *refWalker) decode(addr uint64) (isa.Inst, bool) {
	for _, sec := range w.bin.ExecSections() {
		if addr >= sec.Addr && addr < sec.End() {
			in, err := w.be.Decode(sec.Data[addr-sec.Addr:], addr)
			return in, err == nil
		}
	}
	return isa.Inst{}, false
}

func (w *refWalker) walk(addr uint64, path []symex.Step) {
	forks, merges := 0, 0
	for _, s := range path {
		switch in := s.Inst; {
		case in.Op == isa.OpJcc || in.Op == isa.OpBcc:
			forks++
		case in.Op == isa.OpJmp && in.A.Kind == isa.KindImm:
			merges++
		}
	}
	for len(path) < w.maxInsts {
		in, ok := w.decode(addr)
		if !ok {
			return
		}
		switch {
		case in.Op == isa.OpRet:
			w.found(path, in, false, symex.EndRet)
			return
		case in.Op == isa.OpSyscall:
			w.found(path, in, false, symex.EndSyscall)
			return
		case in.Op == isa.OpJmp && in.A.Kind != isa.KindImm:
			w.found(path, in, false, symex.EndJmpInd)
			return
		case in.Op == isa.OpCall && in.A.Kind != isa.KindImm:
			w.found(path, in, false, symex.EndCallInd)
			return
		case in.Op == isa.OpJalr:
			w.found(path, in, false, symex.EndJmpInd)
			return
		case in.Op == isa.OpJmp:
			if merges >= w.maxMerges {
				w.found(path, in, false, symex.EndJmpDir)
				return
			}
			merges++
			path = append(path, symex.Step{Inst: in})
			addr = uint64(in.A.Imm)
		case in.Op == isa.OpCall || in.Op == isa.OpJal:
			if merges >= w.maxMerges {
				return
			}
			merges++
			path = append(path, symex.Step{Inst: in})
			addr = uint64(in.A.Imm)
		case in.Op == isa.OpJcc || in.Op == isa.OpBcc:
			if forks >= w.maxForks {
				w.found(path, in, true, symex.EndJmpDir)
				return
			}
			taken := append(append([]symex.Step(nil), path...), symex.Step{Inst: in, Taken: true})
			w.walk(uint64(in.A.Imm), taken)
			path = append(path, symex.Step{Inst: in})
			addr = in.End()
			forks++
		case in.Op == isa.OpHlt || in.Op == isa.OpInt3:
			return
		default:
			path = append(path, symex.Step{Inst: in})
			addr = in.End()
		}
	}
}

func (w *refWalker) found(path []symex.Step, last isa.Inst, taken bool, end symex.EndKind) {
	steps := append(append([]symex.Step(nil), path...), symex.Step{Inst: last, Taken: taken})
	w.stats.RawCandidates++
	w.stats.ByType[gadget.Classify(steps, end)]++
	if last.Op == isa.OpJcc || last.Op == isa.OpBcc || (last.Op == isa.OpJmp && last.A.Kind == isa.KindImm) {
		return
	}
	key := binary.LittleEndian.AppendUint64(nil, w.start)
	merged := false
	n := 0
	for _, s := range steps {
		key = binary.LittleEndian.AppendUint64(key, s.Inst.Addr)
		if s.Taken {
			key = append(key, 1)
		}
		key = append(key, 0)
		if s.Inst.Op == isa.OpJmp && s.Inst.A.Kind == isa.KindImm {
			merged = true
		}
		n += int(s.Inst.Len)
	}
	if w.seen[string(key)] {
		w.t.Fatalf("path from %#x walked twice: %v", w.start, steps)
	}
	w.seen[string(key)] = true
	if _, err := w.ex.Exec(steps); err != nil {
		w.stats.Unsupported++
		return
	}
	w.stats.Supported++
	if merged {
		w.stats.MergedGadgets++
	}
	w.pooled = append(w.pooled, pooledPath{Location: w.start, Len: n, Steps: steps})
}

// FuzzExtractWalk checks Extract's statistics and pooled paths against
// refWalker's on arbitrary bytes under every backend: at an aligned and a misaligned
// base, as one section or split into two adjacent ones (a straight-line
// run that leaves its section must not cut a walk that goes on into the
// next), and at MaxInsts 8, 40 and 300 (past the saturated run).
func FuzzExtractWalk(f *testing.F) {
	f.Add([]byte{0x5f, 0xc3}, false, false, uint8(0))                                    // pop rdi; ret
	f.Add([]byte{0x74, 0x02, 0x90, 0x90, 0xff, 0xe0, 0x0f, 0x05}, true, false, uint8(1)) // jz; nops; jmp rax; syscall
	f.Add([]byte{0x90, 0x90, 0x58, 0x5f, 0xc3, 0xcc}, false, true, uint8(1))             // a run across the split
	f.Add([]byte{0xeb, 0x01, 0xcc, 0xe8, 0xf8, 0xff, 0xff, 0xff, 0xc3}, false, false, uint8(0))
	f.Add([]byte{0x13, 0x05, 0x15, 0x00, 0x67, 0x80, 0x00, 0x00}, false, true, uint8(0))                // addi a0,a0,1; ret
	f.Add([]byte{0x05, 0x05, 0x82, 0x80, 0x63, 0x04, 0xb5, 0x00, 0x73, 0, 0, 0}, true, false, uint8(1)) // c.addi; c.jr ra; beq; ecall
	f.Add(append(bytes.Repeat([]byte{0x90}, 8), 0xc3), false, false, uint8(0))                          // runs up to MaxInsts
	f.Add(append(bytes.Repeat([]byte{0x90}, 290), 0x58, 0xc3), false, false, uint8(2))                  // a run past RunCap
	f.Fuzz(func(t *testing.T, data []byte, misaligned, split bool, sel uint8) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		base := uint64(0x401000)
		if misaligned {
			base++
		}
		parts := [][]byte{data}
		if split && len(data) > 1 {
			parts = [][]byte{data[:len(data)/2], data[len(data)/2:]}
		}
		bin := sbf.New()
		addr := base
		for _, p := range parts {
			bin.AddSection(sbf.Section{Name: ".text", Addr: addr, Flags: sbf.FlagRead | sbf.FlagExec, Data: p})
			addr += uint64(len(p))
		}
		maxInsts := []int{8, 40, 300}[sel%3]
		for _, name := range []string{"x64", "rv64", "rv64c"} {
			be, _ := isa.ByName(name)
			want, wantPooled := refExtract(t, bin, be, maxInsts)
			pool := gadget.Extract(bin, gadget.Options{ISA: name, MaxInsts: maxInsts, Parallelism: 2})
			if !reflect.DeepEqual(pool.Stats, want) {
				t.Fatalf("%s base %#x split %v maxInsts %d: stats %+v, reference walk %+v",
					name, base, split, maxInsts, pool.Stats, want)
			}
			var pooled []pooledPath
			for _, g := range pool.Gadgets {
				pooled = append(pooled, pooledPath{Location: g.Location, Len: g.Len, Steps: g.Steps})
			}
			if !reflect.DeepEqual(pooled, wantPooled) {
				t.Fatalf("%s base %#x split %v maxInsts %d: pooled paths %+v, reference walk %+v",
					name, base, split, maxInsts, pooled, wantPooled)
			}
		}
	})
}

// TestPooledEffectsReexecute is an independent oracle for extraction's
// symbolic-execution cursor, which runs a path's shared prefix once for
// all its fork siblings: every pooled gadget of netperf under each
// obfuscation of the paper's case study and on every backend, executed
// from scratch on a fresh Executor bound to the pool's builder, has
// exactly the effect the walk recorded for it.
func TestPooledEffectsReexecute(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and extracts twelve netperf binaries")
	}
	for _, isaName := range []string{"x64", "rv64", "rv64c"} {
		be, _ := isa.ByName(isaName)
		for _, obf := range []string{"", "llvm", "tigress", "virt"} {
			passes, err := obfuscate.ParseSpec(obf)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := benchprog.BuildISA(benchprog.Netperf(), passes, 42, isaName)
			if err != nil {
				t.Fatal(err)
			}
			pool := gadget.Extract(bin, gadget.Options{ISA: isaName, Parallelism: 2})
			if pool.Size() == 0 {
				t.Fatalf("%s/%q: empty pool", isaName, obf)
			}
			for _, g := range pool.Gadgets {
				eff, err := symex.NewExecutorISA(pool.Builder, be).Exec(g.Steps)
				if err != nil {
					t.Fatalf("%s/%q: gadget at %#x len %d no longer executes: %v", isaName, obf, g.Location, g.Len, err)
				}
				if !reflect.DeepEqual(eff, g.Effect) {
					t.Fatalf("%s/%q: gadget at %#x len %d: re-executed effect %+v, pooled %+v",
						isaName, obf, g.Location, g.Len, eff, g.Effect)
				}
			}
		}
	}
}
