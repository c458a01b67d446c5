package gadget_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// equivBinary is one corpus program for the predecode equivalence matrix.
type equivBinary struct {
	name string
	bin  *sbf.Binary
	isa  string // "" = x64
}

// equivBinaries builds the equivalence corpus: the netperf-sim benchmark
// under the LLVM-style preset, a generated MiniC program under the
// Tigress-style preset (which includes virtualization, the arm with the
// longest decode paths), and the LLVM-style crc benchmark on both RISC-V
// backends.
func equivBinaries(tb testing.TB) []equivBinary {
	tb.Helper()
	np, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "")
	if err != nil {
		tb.Fatal(err)
	}
	cls, ok := benchprog.SizeClassByName("small")
	if !ok {
		tb.Fatal("size class small missing")
	}
	gen, err := benchprog.BuildISA(benchprog.Generate(7, cls), obfuscate.Tigress(), 7, "")
	if err != nil {
		tb.Fatal(err)
	}
	out := []equivBinary{
		{name: "netperf-llvmobf", bin: np},
		{name: "gen-small-tigress", bin: gen},
	}
	crc, ok := benchprog.ByName("crc")
	if !ok {
		tb.Fatal("crc benchmark missing")
	}
	for _, isaName := range []string{"rv64", "rv64c"} {
		bin, err := benchprog.BuildISA(crc, obfuscate.LLVMObf(), 42, isaName)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, equivBinary{name: "crc-llvmobf-" + isaName, bin: bin, isa: isaName})
	}
	return out
}

// firstDiff locates the first byte where two canonical renderings diverge.
func firstDiff(a, b string) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-60, 0)
			return fmt.Sprintf("byte %d:\n  ref: %q\n  got: %q", i, a[lo:min(i+60, len(a))], b[lo:min(i+60, len(b))])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// equivGolden pins the pool of every equivalence cell: the first 8 bytes
// of sha256(Pool.Canon()) and the pool size. The hashes were recorded when
// the decode-per-step reference walk still existed, after checking that it
// produced the same hash for every cell, so they stand in for that walk.
var equivGolden = map[string]struct {
	sum  string
	size int
}{
	"netperf-llvmobf":   {"3445fdbfc7a053d5", 692},
	"gen-small-tigress": {"2f3b29a0d57b4f5c", 1127},
	"crc-llvmobf-rv64":  {"c0b09b5441a5de2d", 239},
	"crc-llvmobf-rv64c": {"10be526bab42d94a", 553},
}

// TestPredecodeExtractionEquivalence pins the predecode-table walk to the
// golden pool hashes across the full determinism matrix: every corpus
// program at its backend's stride, and one, two, and eight workers. Canon
// renders everything downstream consumers can observe, so the workers must
// agree byte for byte.
func TestPredecodeExtractionEquivalence(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		var ref string
		for _, par := range []int{1, 2, 8} {
			pool := gadget.Extract(eb.bin, gadget.Options{ISA: eb.isa, Parallelism: par})
			got := pool.Canon()
			if par == 1 {
				ref = got
				sum := sha256.Sum256([]byte(got))
				want := equivGolden[eb.name]
				if h := hex.EncodeToString(sum[:8]); h != want.sum || pool.Size() != want.size {
					t.Errorf("%s: pool hash %s size %d, want %s size %d",
						eb.name, h, pool.Size(), want.sum, want.size)
				}
			} else if got != ref {
				t.Errorf("%s parallelism=%d: pool differs from parallelism=1 at %s",
					eb.name, par, firstDiff(ref, got))
			}
		}
	}
}

// TestPredecodeTableMatchesDecode checks every executable byte offset of
// the equivalence corpus against checkTable's decode-per-slot reference,
// at the default MaxInsts and at angrop's 8.
func TestPredecodeTableMatchesDecode(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		be, ok := isa.ByName(eb.isa)
		if !ok {
			t.Fatalf("%s: unknown isa %q", eb.name, eb.isa)
		}
		for _, maxInsts := range []int{40, 8} {
			if n := checkTable(t, eb.bin, be, maxInsts); n == 0 {
				t.Fatalf("%s: no fetchable slots", eb.name)
			}
		}
	}
}

// refCount is the seed's Count loop, made backend-generic: decode afresh
// from every byte offset with the backend's own Decode until the first
// branch, and classify it with the backend's own Classify. Count now chains
// through a count table; this reference pins the fold.
func refCount(bin *sbf.Binary, maxInsts int, be isa.Backend) map[gadget.JmpType]int {
	counts := make(map[gadget.JmpType]int)
	for _, sec := range bin.ExecSections() {
		for off := 0; off < len(sec.Data); off++ {
			code := sec.Data[off:]
			pos := 0
			hasCond := false
			for n := 0; n < maxInsts; n++ {
				inst, err := be.Decode(code[pos:], sec.Addr+uint64(off+pos))
				if err != nil {
					break
				}
				pos += int(inst.Len)
				var t gadget.JmpType
				switch be.Classify(&inst) {
				case isa.ClassRet:
					t = gadget.TypeReturn
				case isa.ClassSyscall:
					t = gadget.TypeSyscall
				case isa.ClassJmpDir:
					t = gadget.TypeUDJ
					if hasCond {
						t = gadget.TypeCDJ
					}
				case isa.ClassJmpInd, isa.ClassCallInd:
					t = gadget.TypeUIJ
					if hasCond {
						t = gadget.TypeCIJ
					}
				case isa.ClassCallDir:
					t = gadget.TypeInvalid
				case isa.ClassCondBr:
					hasCond = true
					continue
				default:
					continue
				}
				if t != gadget.TypeInvalid {
					counts[t]++
				}
				break
			}
		}
	}
	return counts
}

// TestCountMatchesReference pins the table-folded count against the seed's
// decode-per-window loop on every corpus program under every backend (the
// program's own and the other two: a foreign backend sees mostly
// undecodable bytes, which exercises the chain breaks), at the default
// window and a deeper one, at one and two workers.
func TestCountMatchesReference(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		for _, name := range []string{"x64", "rv64", "rv64c"} {
			be, _ := isa.ByName(name)
			for _, maxInsts := range []int{10, 25} {
				want := refCount(eb.bin, maxInsts, be)
				for _, par := range []int{1, 2} {
					got := gadget.CountParallel(eb.bin, maxInsts, be, par)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s under %s maxInsts=%d parallelism=%d: count = %v, want %v",
							eb.name, name, maxInsts, par, got, want)
					}
				}
			}
		}
	}
}

// FuzzCount checks CountISA against refCount on arbitrary bytes under all
// three backends, with the section placed at an aligned and at a
// misaligned base (odd bases shift which offsets the RISC-V backends may
// decode).
func FuzzCount(f *testing.F) {
	f.Add([]byte{0x5f, 0xc3}, false)                                                   // pop rdi; ret
	f.Add([]byte{0x74, 0x02, 0x90, 0x90, 0xff, 0xe0, 0x0f, 0x05}, true)                // jz; nops; jmp rax; syscall
	f.Add([]byte{0x13, 0x05, 0x15, 0x00, 0x67, 0x80, 0x00, 0x00}, false)               // addi a0,a0,1; ret
	f.Add([]byte{0x05, 0x05, 0x82, 0x80, 0x63, 0x04, 0xb5, 0x00, 0x73, 0, 0, 0}, true) // c.addi; c.jr ra; beq; ecall
	f.Fuzz(func(t *testing.T, data []byte, misaligned bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		base := uint64(0x401000)
		if misaligned {
			base++
		}
		bin := sbf.New()
		bin.AddSection(sbf.Section{
			Name: ".text", Addr: base, Flags: sbf.FlagRead | sbf.FlagExec, Data: data,
		})
		for _, name := range []string{"x64", "rv64", "rv64c"} {
			be, _ := isa.ByName(name)
			want := refCount(bin, 10, be)
			if got := gadget.CountISA(bin, 10, be); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s base %#x: count = %v, want %v", name, base, got, want)
			}
		}
	})
}

// TestCountAllocsFlat pins the count scan's allocations to the section
// count, not its size: a 64 KiB section must allocate no more objects than
// a 4 KiB one. A per-instruction escape (say, an Inst copied and handed by
// pointer through the Backend interface) scales with the scan and fails
// this. TestUndecodableAllocsFlat pins the same for decode failures.
func TestCountAllocsFlat(t *testing.T) {
	cases := []struct {
		isa  string
		unit []byte
	}{
		{"x64", []byte{0x5f, 0x90, 0x58, 0xc3}},                          // pop rdi; nop; pop rax; ret
		{"rv64", []byte{0x13, 0x05, 0x15, 0x00, 0x67, 0x80, 0x00, 0x00}}, // addi a0,a0,1; ret
		{"rv64c", []byte{0x05, 0x05, 0x82, 0x80}},                        // c.addi a0,1; c.jr ra
	}
	for _, c := range cases {
		be, _ := isa.ByName(c.isa)
		allocs := func(size int) float64 {
			bin := sbf.New()
			bin.AddSection(sbf.Section{
				Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec,
				Data: bytes.Repeat(c.unit, size/len(c.unit)),
			})
			if gadget.TotalCount(gadget.CountParallel(bin, 10, be, 1)) == 0 {
				t.Fatalf("%s: no gadgets counted", c.isa)
			}
			return testing.AllocsPerRun(5, func() { gadget.CountParallel(bin, 10, be, 1) })
		}
		small, large := allocs(4<<10), allocs(64<<10)
		if large > small {
			t.Errorf("%s: count allocates %.0f objects on 64 KiB, %.0f on 4 KiB", c.isa, large, small)
		}
	}
}

// TestUndecodableAllocsFlat pins the decode pass's failure path: on a
// section where no stride-aligned address decodes, building the predecode
// table and the count table must allocate no more objects for 64 KiB than
// for 4 KiB, on every backend. A decode failure that builds its error
// allocates once per address and fails this.
func TestUndecodableAllocsFlat(t *testing.T) {
	cases := []struct {
		isa  string
		unit []byte
	}{
		{"x64", []byte{0x06}},                    // no such opcode in 64-bit mode
		{"rv64", []byte{0x00, 0x00, 0x00, 0x00}}, // compressed form without the C extension
		{"rv64c", []byte{0x00, 0x00}},            // the all-zero illegal instruction
	}
	for _, c := range cases {
		be, _ := isa.ByName(c.isa)
		allocs := func(size int) float64 {
			bin := sbf.New()
			bin.AddSection(sbf.Section{
				Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec,
				Data: bytes.Repeat(c.unit, size/len(c.unit)),
			})
			if n := gadget.TotalCount(gadget.CountParallel(bin, 10, be, 1)); n != 0 {
				t.Fatalf("%s: %d gadgets counted in undecodable bytes", c.isa, n)
			}
			// Enough runs that a collection's own few allocations, which
			// the larger section triggers more often, round away.
			return testing.AllocsPerRun(50, func() {
				gadget.PredecodeISA(bin, 1, be)
				gadget.CountParallel(bin, 10, be, 1)
			})
		}
		if small, large := allocs(4<<10), allocs(64<<10); large > small {
			t.Errorf("%s: decoding undecodable bytes allocates %.0f objects on 64 KiB, %.0f on 4 KiB", c.isa, large, small)
		}
	}
}

// refRun follows the fall-through chain from addr with the backend's own
// Decode and Classify, one instruction at a time. It returns how many
// ClassOther instructions come before the first slot of another class,
// whether the chain meets an undecodable or trap slot first (dead), and
// whether it runs off the end of sec first (unknown).
func refRun(be isa.Backend, sec *sbf.Section, addr uint64) (run int, dead, unknown bool) {
	for {
		if addr >= sec.End() {
			return 0, false, true
		}
		in, err := be.Decode(sec.Data[addr-sec.Addr:], addr)
		if err != nil {
			return 0, true, false
		}
		switch be.Classify(&in) {
		case isa.ClassTrap:
			return 0, true, false
		case isa.ClassOther:
			run++
			addr += uint64(in.Len)
		default:
			return run, false, false
		}
	}
}

// checkTable pins every slot of bin's Table for maxInsts against direct
// decoding, and returns how many slots hold an instruction:
//   - a slot's {len, class} is Decode plus Classify, zero where Decode fails;
//   - its run is refRun's, saturated at RunCap, RunDead on a dead chain and
//     0 on a chain that leaves its section;
//   - it holds an instruction exactly when a walk can fetch it (not dead,
//     run below maxInsts), and that instruction is Decode's.
//
// Misaligned addresses, and one address past each end of a section, have
// no slot.
func checkTable(t *testing.T, bin *sbf.Binary, be isa.Backend, maxInsts int) int {
	t.Helper()
	tab := gadget.PredecodeMax(bin, 2, be, maxInsts)
	secs := bin.ExecSections()
	inExec := func(addr uint64) bool {
		for _, sec := range secs {
			if addr >= sec.Addr && addr < sec.End() {
				return true
			}
		}
		return false
	}
	stride := uint64(be.Stride())
	fetchable := 0
	for _, sec := range secs {
		for off := -1; off <= len(sec.Data); off++ {
			addr := sec.Addr + uint64(off)
			got, ok := tab.SlotAt(addr)
			where := fmt.Sprintf("%s base %#x maxInsts %d at %#x", be.Name(), sec.Addr, maxInsts, addr)
			if off < 0 || off == len(sec.Data) || addr%stride != 0 {
				if ok && (addr%stride != 0 || !inExec(addr)) {
					t.Fatalf("%s: slot %+v outside the aligned code", where, got)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: no slot", where)
			}
			want, err := be.Decode(sec.Data[off:], addr)
			var wantLen uint8
			var wantClass isa.Class
			if err == nil {
				wantLen, wantClass = want.Len, be.Classify(&want)
			}
			if got.Len != wantLen || got.Class != wantClass {
				t.Fatalf("%s: slot {len %d, class %v}, decode gives {len %d, class %v}",
					where, got.Len, got.Class, wantLen, wantClass)
			}
			run, dead, unknown := refRun(be, sec, addr)
			wantRun := min(run, gadget.RunCap)
			switch {
			case dead:
				wantRun = gadget.RunDead
			case unknown:
				wantRun = 0
			}
			if got.Run != wantRun {
				t.Fatalf("%s: run %d, reference walk gives %d (dead %v, unknown %v)",
					where, got.Run, run, dead, unknown)
			}
			if fetch := !dead && wantRun < maxInsts; got.HasInst != fetch {
				t.Fatalf("%s: holds an instruction %v, a walk can fetch it %v", where, got.HasInst, fetch)
			}
			if got.HasInst {
				fetchable++
				if got.Inst != want {
					t.Fatalf("%s: table %+v != decode %+v", where, got.Inst, want)
				}
			}
		}
	}
	return fetchable
}

// FuzzPredecode runs checkTable on arbitrary bytes under every backend, at
// a stride-aligned and a misaligned section base (odd bases shift which
// offsets the RISC-V backends may decode) and at a MaxInsts from 1 to 300,
// so runs saturated at RunCap are pinned below and above the cut-off.
func FuzzPredecode(f *testing.F) {
	f.Add([]byte{0xc3}, false, uint16(40))
	f.Add([]byte{0x5f, 0xc3}, false, uint16(1))                                     // pop rdi; ret
	f.Add([]byte{0x0f}, true, uint16(40))                                           // truncated two-byte opcode
	f.Add([]byte{0x48, 0xb8, 0, 0, 0, 0, 0, 0x58, 0xc3, 0x00}, false, uint16(8))    // movabs hiding pop/ret
	f.Add([]byte{0xeb, 0xfe, 0xcc, 0x90, 0xff, 0xe0}, true, uint16(40))             // jmp self; int3; nop; jmp rax
	f.Add([]byte{0x13, 0x05, 0x15, 0x00, 0x67, 0x80, 0x00, 0x00}, false, uint16(8)) // addi a0,a0,1; ret
	f.Add([]byte{0x05, 0x05, 0x82, 0x80, 0x63, 0x04, 0xb5, 0x00, 0x73, 0, 0, 0}, true, uint16(40))
	f.Add(append(bytes.Repeat([]byte{0x90}, 300), 0xc3), false, uint16(280)) // a run past RunCap
	f.Fuzz(func(t *testing.T, data []byte, misaligned bool, maxInsts uint16) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		base := uint64(0x401000)
		if misaligned {
			base++
		}
		bin := sbf.New()
		bin.AddSection(sbf.Section{
			Name: ".text", Addr: base, Flags: sbf.FlagRead | sbf.FlagExec, Data: data,
		})
		for _, name := range []string{"x64", "rv64", "rv64c"} {
			be, _ := isa.ByName(name)
			checkTable(t, bin, be, 1+int(maxInsts)%300)
		}
	})
}
