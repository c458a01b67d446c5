package gadget_test

import (
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
	np, err := benchprog.Build(benchprog.Netperf(), obfuscate.LLVMObf(), 42)
	if err != nil {
		tb.Fatal(err)
	}
	cls, ok := benchprog.SizeClassByName("small")
	if !ok {
		tb.Fatal("size class small missing")
	}
	gen, err := benchprog.Build(benchprog.Generate(7, cls), obfuscate.Tigress(), 7)
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
	"netperf-llvmobf/stride=1":   {"3445fdbfc7a053d5", 692},
	"netperf-llvmobf/stride=2":   {"d24d0a86949638ba", 335},
	"gen-small-tigress/stride=1": {"2f3b29a0d57b4f5c", 1127},
	"gen-small-tigress/stride=2": {"ab2fab11281a0508", 538},
	"crc-llvmobf-rv64/stride=0":  {"c0b09b5441a5de2d", 239},
	"crc-llvmobf-rv64c/stride=0": {"10be526bab42d94a", 553},
}

// TestPredecodeExtractionEquivalence pins the predecode-table walk to the
// golden pool hashes across the full determinism matrix: every corpus
// program, stride 1 and 2 on x64 and the backend's own stride on RISC-V,
// and one, two, and eight workers. Canon renders everything downstream
// consumers can observe, so the workers must agree byte for byte.
func TestPredecodeExtractionEquivalence(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		strides := []int{1, 2}
		if eb.isa != "" {
			strides = []int{0}
		}
		for _, stride := range strides {
			cell := fmt.Sprintf("%s/stride=%d", eb.name, stride)
			var ref string
			for _, par := range []int{1, 2, 8} {
				pool := gadget.Extract(eb.bin, gadget.Options{
					ISA: eb.isa, Stride: stride, Parallelism: par,
				})
				got := pool.Canon()
				if par == 1 {
					ref = got
					sum := sha256.Sum256([]byte(got))
					want := equivGolden[cell]
					if h := hex.EncodeToString(sum[:8]); h != want.sum || pool.Size() != want.size {
						t.Errorf("%s: pool hash %s size %d, want %s size %d",
							cell, h, pool.Size(), want.sum, want.size)
					}
				} else if got != ref {
					t.Errorf("%s parallelism=%d: pool differs from parallelism=1 at %s",
						cell, par, firstDiff(ref, got))
				}
			}
		}
	}
}

// TestPredecodeTableMatchesDecode checks every executable byte offset of
// the equivalence corpus: the table entry must be exactly what the
// backend's own Decode returns there, and undecodable offsets must be
// absent. It covers x64, rv64 and rv64c; FuzzPredecode explores x64 bytes.
func TestPredecodeTableMatchesDecode(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		be, ok := isa.ByName(eb.isa)
		if !ok {
			t.Fatalf("%s: unknown isa %q", eb.name, eb.isa)
		}
		tab := gadget.PredecodeISA(eb.bin, 2, be)
		checked := 0
		for _, sec := range eb.bin.ExecSections() {
			for off := range sec.Data {
				addr := sec.Addr + uint64(off)
				got, ok := tab.InstAt(addr)
				want, err := be.Decode(sec.Data[off:], addr)
				switch {
				case err != nil && ok:
					t.Fatalf("%s %#x: table has %v, decode errors: %v", eb.name, addr, got, err)
				case err == nil && !ok:
					t.Fatalf("%s %#x: table invalid, decode gives %v", eb.name, addr, want)
				case err == nil && got != want:
					t.Fatalf("%s %#x: table %+v != decode %+v", eb.name, addr, got, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no executable bytes", eb.name)
		}
	}
}

// refCount is the seed's Count loop: decode afresh from every byte offset
// until the first branch and classify it. Count now chains through the
// predecode table; this reference pins the fold.
func refCount(bin *sbf.Binary, maxInsts int) map[gadget.JmpType]int {
	counts := make(map[gadget.JmpType]int)
	for _, sec := range bin.ExecSections() {
		for off := 0; off < len(sec.Data); off++ {
			code := sec.Data[off:]
			pos := 0
			hasCond := false
			for n := 0; n < maxInsts; n++ {
				inst, err := isa.Decode(code[pos:], sec.Addr+uint64(off+pos))
				if err != nil {
					break
				}
				pos += int(inst.Len)
				var t gadget.JmpType
				switch {
				case inst.Op == isa.OpRet:
					t = gadget.TypeReturn
				case inst.Op == isa.OpSyscall:
					t = gadget.TypeSyscall
				case inst.Op == isa.OpJmp && inst.A.Kind == isa.KindImm:
					t = gadget.TypeUDJ
					if hasCond {
						t = gadget.TypeCDJ
					}
				case (inst.Op == isa.OpJmp || inst.Op == isa.OpCall) && inst.A.Kind != isa.KindImm:
					t = gadget.TypeUIJ
					if hasCond {
						t = gadget.TypeCIJ
					}
				case inst.Op == isa.OpCall:
					t = gadget.TypeInvalid
				case inst.Op == isa.OpJcc:
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

// TestCountMatchesReference pins the table-folded Count against the seed's
// decode-per-window loop on the x64 corpus programs, at the default window
// and a deeper one.
func TestCountMatchesReference(t *testing.T) {
	for _, eb := range equivBinaries(t) {
		if eb.isa != "" {
			continue // refCount decodes x64 only
		}
		for _, maxInsts := range []int{10, 25} {
			want := refCount(eb.bin, maxInsts)
			got := gadget.Count(eb.bin, maxInsts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s maxInsts=%d: Count = %v, want %v", eb.name, maxInsts, got, want)
			}
		}
	}
}

// FuzzPredecode asserts that every table entry matches a direct isa.Decode
// call at that offset: same validity verdict, and — isa.Inst being a
// comparable value struct — the identical decoded instruction.
func FuzzPredecode(f *testing.F) {
	f.Add([]byte{0xc3})
	f.Add([]byte{0x5f, 0xc3})                                  // pop rdi; ret
	f.Add([]byte{0x0f})                                        // truncated two-byte opcode
	f.Add([]byte{0x48, 0xb8, 0, 0, 0, 0, 0, 0x58, 0xc3, 0x00}) // movabs hiding pop/ret
	f.Add([]byte{0xeb, 0xfe, 0xcc, 0x90, 0xff, 0xe0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		const base = 0x401000
		bin := sbf.New()
		bin.AddSection(sbf.Section{
			Name: ".text", Addr: base, Flags: sbf.FlagRead | sbf.FlagExec, Data: data,
		})
		tab := gadget.PredecodeISA(bin, 2, isa.X64)
		for off := range data {
			addr := base + uint64(off)
			got, ok := tab.InstAt(addr)
			want, err := isa.Decode(data[off:], addr)
			if err != nil {
				if ok {
					t.Fatalf("offset %d: table has %v, direct decode errors: %v", off, got, err)
				}
				continue
			}
			if !ok {
				t.Fatalf("offset %d: table invalid, direct decode gives %v", off, want)
			}
			if got != want {
				t.Fatalf("offset %d: table %+v != decode %+v", off, got, want)
			}
		}
	})
}
