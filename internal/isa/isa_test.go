package isa

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// golden encodings checked against the Intel SDM / a reference assembler.
func TestEncodeGolden(t *testing.T) {
	tests := []struct {
		name string
		inst Inst
		pc   uint64
		want []byte
	}{
		{"push rax", Inst{Op: OpPush, A: RegOp(RAX)}, 0, []byte{0x50}},
		{"push r8", Inst{Op: OpPush, A: RegOp(R8)}, 0, []byte{0x41, 0x50}},
		{"pop rdi", Inst{Op: OpPop, A: RegOp(RDI)}, 0, []byte{0x5F}},
		{"pop r15", Inst{Op: OpPop, A: RegOp(R15)}, 0, []byte{0x41, 0x5F}},
		{"ret", Inst{Op: OpRet}, 0, []byte{0xC3}},
		{"ret 8", Inst{Op: OpRet, A: ImmOp(8)}, 0, []byte{0xC2, 0x08, 0x00}},
		{"nop", Inst{Op: OpNop}, 0, []byte{0x90}},
		{"leave", Inst{Op: OpLeave}, 0, []byte{0xC9}},
		{"syscall", Inst{Op: OpSyscall}, 0, []byte{0x0F, 0x05}},
		{"cqo", Inst{Op: OpCqo, Size: 8}, 0, []byte{0x48, 0x99}},
		{
			"mov rax, 0x3b",
			Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x3B)},
			0,
			[]byte{0x48, 0xC7, 0xC0, 0x3B, 0x00, 0x00, 0x00},
		},
		{
			"mov rdi, rsi",
			Inst{Op: OpMov, Size: 8, A: RegOp(RDI), B: RegOp(RSI)},
			0,
			[]byte{0x48, 0x89, 0xF7},
		},
		{
			"add rax, rbx",
			Inst{Op: OpAdd, Size: 8, A: RegOp(RAX), B: RegOp(RBX)},
			0,
			[]byte{0x48, 0x01, 0xD8},
		},
		{
			"sub rsp, 8",
			Inst{Op: OpSub, Size: 8, A: RegOp(RSP), B: ImmOp(8)},
			0,
			[]byte{0x48, 0x83, 0xEC, 0x08},
		},
		{
			"xor edi, edi",
			Inst{Op: OpXor, Size: 4, A: RegOp(RDI), B: RegOp(RDI)},
			0,
			[]byte{0x31, 0xFF},
		},
		{"jmp rax", Inst{Op: OpJmp, A: RegOp(RAX)}, 0, []byte{0xFF, 0xE0}},
		{"call rbx", Inst{Op: OpCall, A: RegOp(RBX)}, 0, []byte{0xFF, 0xD3}},
		{
			"lea rax, [rbp-8]",
			Inst{Op: OpLea, Size: 8, A: RegOp(RAX), B: MemOp(RBP, -8)},
			0,
			[]byte{0x48, 0x8D, 0x45, 0xF8},
		},
		{
			"mov rax, [rsp+0x10]",
			Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: MemOp(RSP, 0x10)},
			0,
			[]byte{0x48, 0x8B, 0x44, 0x24, 0x10},
		},
		{
			"mov [rbp-0x10], rdi",
			Inst{Op: OpMov, Size: 8, A: MemOp(RBP, -0x10), B: RegOp(RDI)},
			0,
			[]byte{0x48, 0x89, 0x7D, 0xF0},
		},
		{
			"test rax, rax",
			Inst{Op: OpTest, Size: 8, A: RegOp(RAX), B: RegOp(RAX)},
			0,
			[]byte{0x48, 0x85, 0xC0},
		},
		{
			"jne +0x10",
			Inst{Op: OpJcc, Cond: CondNE, A: ImmOp(0x1010)},
			0x1000,
			[]byte{0x0F, 0x85, 0x0A, 0x00, 0x00, 0x00},
		},
		{
			"jmp +0x20",
			Inst{Op: OpJmp, A: ImmOp(0x1020)},
			0x1000,
			[]byte{0xE9, 0x1B, 0x00, 0x00, 0x00},
		},
		{
			"call -0x100",
			Inst{Op: OpCall, A: ImmOp(0xF00)},
			0x1000,
			[]byte{0xE8, 0xFB, 0xFE, 0xFF, 0xFF},
		},
		{
			"movzx eax, byte [rdi]",
			Inst{Op: OpMovzx, Size: 4, A: RegOp(RAX), B: MemOp(RDI, 0)},
			0,
			[]byte{0x0F, 0xB6, 0x07},
		},
		{
			"imul rax, rdx",
			Inst{Op: OpImul, Size: 8, A: RegOp(RAX), B: RegOp(RDX)},
			0,
			[]byte{0x48, 0x0F, 0xAF, 0xC2},
		},
		{
			"shl rax, 4",
			Inst{Op: OpShl, Size: 8, A: RegOp(RAX), B: ImmOp(4)},
			0,
			[]byte{0x48, 0xC1, 0xE0, 0x04},
		},
		{
			"not rcx",
			Inst{Op: OpNot, Size: 8, A: RegOp(RCX)},
			0,
			[]byte{0x48, 0xF7, 0xD1},
		},
		{
			"movabs rax",
			Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x123456789A)},
			0,
			[]byte{0x48, 0xB8, 0x9A, 0x78, 0x56, 0x34, 0x12, 0x00, 0x00, 0x00},
		},
		{
			"mov rax, uint32-range imm uses 32-bit zero-extending form",
			Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x89ABCDEF)},
			0,
			[]byte{0xB8, 0xEF, 0xCD, 0xAB, 0x89},
		},
		{
			"mov qword [rsp], 7",
			Inst{Op: OpMov, Size: 8, A: MemOp(RSP, 0), B: ImmOp(7)},
			0,
			[]byte{0x48, 0xC7, 0x04, 0x24, 0x07, 0x00, 0x00, 0x00},
		},
		{
			"mov rax, [rbx+rcx*8+0x40]",
			Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: MemOpIdx(RBX, RCX, 8, 0x40)},
			0,
			[]byte{0x48, 0x8B, 0x44, 0xCB, 0x40},
		},
		{
			"inc r10",
			Inst{Op: OpInc, Size: 8, A: RegOp(R10)},
			0,
			[]byte{0x49, 0xFF, 0xC2},
		},
		{
			"mov byte [rdi], sil",
			Inst{Op: OpMov, Size: 1, A: MemOp(RDI, 0), B: RegOp(RSI)},
			0,
			[]byte{0x40, 0x88, 0x37},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Encode(tt.inst, tt.pc)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if !bytes.Equal(got, tt.want) {
				t.Fatalf("Encode(%s) = %x, want %x", tt.inst, got, tt.want)
			}
		})
	}
}

// roundTrip encodes, decodes, and re-encodes the instruction, requiring the
// re-encoding to be byte-identical. This is the canonical self-consistency
// check: decode(encode(i)) may legally normalize an instruction, but a second
// encode of the decoded form must be stable.
func roundTrip(t *testing.T, inst Inst, pc uint64) Inst {
	t.Helper()
	enc, err := Encode(inst, pc)
	if err != nil {
		t.Fatalf("Encode(%s): %v", inst, err)
	}
	dec, err := Decode(enc, pc)
	if err != nil {
		t.Fatalf("Decode(%x) of %s: %v", enc, inst, err)
	}
	if int(dec.Len) != len(enc) {
		t.Fatalf("Decode(%s): consumed %d of %d bytes", inst, dec.Len, len(enc))
	}
	enc2, err := Encode(dec, pc)
	if err != nil {
		t.Fatalf("re-Encode(%s): %v", dec, err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("unstable encoding for %s: %x vs %x (decoded %s)", inst, enc, enc2, dec)
	}
	return dec
}

func TestRoundTripTable(t *testing.T) {
	regs := []Reg{RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R12, R13, R15}
	var insts []Inst
	for _, r := range regs {
		insts = append(insts,
			Inst{Op: OpPush, A: RegOp(r)},
			Inst{Op: OpPop, A: RegOp(r)},
			Inst{Op: OpInc, Size: 8, A: RegOp(r)},
			Inst{Op: OpDec, Size: 4, A: RegOp(r)},
			Inst{Op: OpNot, Size: 8, A: RegOp(r)},
			Inst{Op: OpNeg, Size: 8, A: RegOp(r)},
			Inst{Op: OpJmp, A: RegOp(r)},
			Inst{Op: OpCall, A: RegOp(r)},
			Inst{Op: OpMov, Size: 8, A: RegOp(r), B: ImmOp(-5)},
			Inst{Op: OpMov, Size: 8, A: RegOp(r), B: ImmOp(0x1122334455)},
		)
		for _, r2 := range regs {
			insts = append(insts,
				Inst{Op: OpMov, Size: 8, A: RegOp(r), B: RegOp(r2)},
				Inst{Op: OpAdd, Size: 8, A: RegOp(r), B: RegOp(r2)},
				Inst{Op: OpXor, Size: 4, A: RegOp(r), B: RegOp(r2)},
				Inst{Op: OpXchg, Size: 8, A: RegOp(r), B: RegOp(r2)},
				Inst{Op: OpMov, Size: 8, A: RegOp(r), B: MemOp(r2, 0x28)},
				Inst{Op: OpMov, Size: 8, A: MemOp(r2, -0x28), B: RegOp(r)},
				Inst{Op: OpLea, Size: 8, A: RegOp(r), B: MemOp(r2, 0x1234)},
			)
		}
	}
	insts = append(insts,
		Inst{Op: OpPush, A: ImmOp(0x12345)},
		Inst{Op: OpPush, A: ImmOp(-1)},
		Inst{Op: OpPush, A: MemOp(RAX, 8)},
		Inst{Op: OpPop, A: MemOp(RBX, 0x10)},
		Inst{Op: OpJmp, A: MemOp(RAX, 0x18)},
		Inst{Op: OpCall, A: MemOp(R11, 0)},
		Inst{Op: OpTest, Size: 8, A: RegOp(RAX), B: ImmOp(0x70)},
		Inst{Op: OpSetcc, Cond: CondLE, Size: 1, A: RegOp(RDX)},
		Inst{Op: OpMovzx, Size: 8, A: RegOp(RCX), B: MemOp(RSI, 3)},
		Inst{Op: OpMovsxd, Size: 8, A: RegOp(RCX), B: RegOp(RDX)},
		Inst{Op: OpIdiv, Size: 8, A: RegOp(RBX)},
		Inst{Op: OpImul, Size: 8, A: RegOp(R9), B: MemOp(RSP, 0x40)},
		Inst{Op: OpShl, Size: 8, A: RegOp(RSI), B: RegOp(RCX)},
		Inst{Op: OpSar, Size: 8, A: RegOp(RSI), B: ImmOp(63)},
		Inst{Op: OpMov, Size: 1, A: MemOp(RDI, 1), B: RegOp(RAX)},
		Inst{Op: OpMov, Size: 1, A: RegOp(RAX), B: MemOp(RDI, 1)},
		Inst{Op: OpMov, Size: 1, A: MemOp(RDI, 0), B: ImmOp(0x41)},
		Inst{Op: OpCmp, Size: 1, A: RegOp(RAX), B: RegOp(RBX)},
		Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: MemOpIdx(RBX, RDX, 4, -8)},
		Inst{Op: OpMov, Size: 8, A: MemOpIdx(R13, R14, 2, 0), B: RegOp(R15)},
		Inst{Op: OpLea, Size: 8, A: RegOp(RAX), B: RIPOp(0x1000)},
		Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: RIPOp(-0x20)},
		Inst{Op: OpAdd, Size: 8, A: MemOp(RSP, 0x30), B: ImmOp(0x1000)},
		Inst{Op: OpRet, A: ImmOp(0x10)},
	)

	for _, inst := range insts {
		dec := roundTrip(t, inst, 0x400000)
		if dec.Op != inst.Op {
			t.Errorf("op changed: %s -> %s", inst, dec)
		}
	}
}

func TestRoundTripBranches(t *testing.T) {
	pcs := []uint64{0x1000, 0x400000, 0x7FFF0000}
	for _, pc := range pcs {
		for _, delta := range []int64{-0x100000, -6, 0, 5, 6, 0x7FFF, 0x100000} {
			target := uint64(int64(pc) + delta)
			for _, inst := range []Inst{
				{Op: OpJmp, A: ImmOp(int64(target))},
				{Op: OpCall, A: ImmOp(int64(target))},
				{Op: OpJcc, Cond: CondG, A: ImmOp(int64(target))},
				{Op: OpJcc, Cond: CondB, A: ImmOp(int64(target))},
			} {
				dec := roundTrip(t, inst, pc)
				if uint64(dec.A.Imm) != target {
					t.Fatalf("%s at %#x: target %#x, want %#x", inst.Op, pc, dec.A.Imm, target)
				}
				if dec.Op == OpJcc && dec.Cond != inst.Cond {
					t.Fatalf("jcc cond changed: %v -> %v", inst.Cond, dec.Cond)
				}
			}
		}
	}
}

// quick-check: random mov/ALU register-register instructions round-trip.
func TestQuickRegReg(t *testing.T) {
	ops := []Op{OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpCmp, OpTest, OpXchg, OpImul}
	f := func(opIdx, a, b uint8, wide bool) bool {
		op := ops[int(opIdx)%len(ops)]
		size := uint8(4)
		if wide {
			size = 8
		}
		inst := Inst{Op: op, Size: size, A: RegOp(Reg(a % 16)), B: RegOp(Reg(b % 16))}
		enc, err := Encode(inst, 0)
		if err != nil {
			return false
		}
		dec, err := Decode(enc, 0)
		if err != nil {
			return false
		}
		return dec.Op == inst.Op && dec.Size == size &&
			dec.A.Kind == KindReg && dec.B.Kind == KindReg &&
			dec.A.Reg == inst.A.Reg && dec.B.Reg == inst.B.Reg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// quick-check: random memory operands survive the ModRM/SIB encoder.
func TestQuickMemOperand(t *testing.T) {
	f := func(base, index uint8, scaleSel uint8, disp int32, hasIndex bool) bool {
		m := Mem{Base: Reg(base % 16), HasBase: true, Disp: disp}
		if hasIndex {
			idx := Reg(index % 16)
			if idx == RSP {
				idx = RBP
			}
			m.Index = idx
			m.HasIndex = true
			m.Scale = []uint8{1, 2, 4, 8}[scaleSel%4]
		}
		inst := Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: Operand{Kind: KindMem, Mem: m}}
		enc, err := Encode(inst, 0)
		if err != nil {
			return false
		}
		dec, err := Decode(enc, 0)
		if err != nil {
			return false
		}
		dm := dec.B.Mem
		if dm.HasBase != m.HasBase || dm.Base != m.Base || dm.Disp != m.Disp {
			return false
		}
		if dm.HasIndex != m.HasIndex {
			return false
		}
		if m.HasIndex && (dm.Index != m.Index || dm.Scale != m.Scale) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// quick-check: mov reg, imm64 preserves the 64-bit value under the
// zero-extension / sign-extension encoding selection.
func TestQuickMovImm(t *testing.T) {
	f := func(r uint8, v int64) bool {
		inst := Inst{Op: OpMov, Size: 8, A: RegOp(Reg(r % 16)), B: ImmOp(v)}
		enc, err := Encode(inst, 0)
		if err != nil {
			return false
		}
		dec, err := Decode(enc, 0)
		if err != nil {
			return false
		}
		if dec.Op != OpMov || dec.A.Reg != inst.A.Reg || dec.B.Kind != KindImm {
			return false
		}
		// Compute the architectural result of the decoded form.
		var got uint64
		if dec.Size == 4 {
			got = uint64(uint32(dec.B.Imm)) // 32-bit writes zero-extend
		} else {
			got = uint64(dec.B.Imm)
		}
		return got == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// The decoder must never panic and must make progress on any byte soup.
func TestDecodeRandomBytesSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(buf)
		inst, err := Decode(buf, 0x400000)
		if err != nil {
			continue
		}
		if inst.Len == 0 || inst.Len > 16 {
			t.Fatalf("bad decoded length %d for %x", inst.Len, buf[:16])
		}
		_ = inst.String() // printer must not panic either
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := Encode(Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x11223344556677)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n], 0); err == nil {
			t.Fatalf("expected error decoding %d-byte prefix", n)
		}
	}
}

func TestUnalignedDecodeFindsHiddenGadget(t *testing.T) {
	// The classic x86 trick: the tail bytes of a long immediate decode as a
	// different instruction. mov rax, 0x00C3580000000000 embeds "pop rax; ret"
	// (58 C3) inside the immediate.
	inst := Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x00C3_5800_0000_0000)}
	enc, err := Encode(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes: 48 B8 00 00 00 00 00 58 C3 00.
	sub, err := Decode(enc[7:], 7)
	if err != nil {
		t.Fatalf("unaligned decode: %v", err)
	}
	if sub.Op != OpPop || sub.A.Reg != RAX {
		t.Fatalf("expected hidden pop rax, got %s", sub)
	}
	ret, err := Decode(enc[8:], 8)
	if err != nil || ret.Op != OpRet {
		t.Fatalf("expected hidden ret, got %v %v", ret, err)
	}
}

func TestCondNegate(t *testing.T) {
	pairs := map[Cond]Cond{
		CondE: CondNE, CondL: CondGE, CondLE: CondG, CondB: CondAE,
		CondBE: CondA, CondS: CondNS, CondO: CondNO, CondP: CondNP,
	}
	for c, want := range pairs {
		if got := c.Negate(); got != want {
			t.Errorf("Negate(%v) = %v, want %v", c, got, want)
		}
		if got := want.Negate(); got != c {
			t.Errorf("Negate(%v) = %v, want %v", want, got, c)
		}
	}
}

func TestRegByName(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		for _, size := range []uint8{1, 4, 8} {
			got, ok := RegByName(r.Name(size))
			if !ok || got != r {
				t.Errorf("RegByName(%q) = %v, %v", r.Name(size), got, ok)
			}
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName accepted a bogus name")
	}
}

func TestPrintForms(t *testing.T) {
	tests := []struct {
		inst Inst
		want string
	}{
		{Inst{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x3B)}, "mov rax, 0x3b"},
		{Inst{Op: OpPop, A: RegOp(RDI)}, "pop rdi"},
		{Inst{Op: OpRet}, "ret"},
		{Inst{Op: OpSyscall}, "syscall"},
		{Inst{Op: OpJcc, Cond: CondNE, A: ImmOp(0x401234)}, "jne 0x401234"},
		{Inst{Op: OpJmp, A: RegOp(RAX)}, "jmp rax"},
		{Inst{Op: OpMov, Size: 8, A: RegOp(RBX), B: MemOp(RSP, 8)}, "mov rbx, qword [rsp+0x8]"},
		{Inst{Op: OpMov, Size: 1, A: MemOp(RDI, 0), B: RegOp(RAX)}, "mov byte [rdi], al"},
		{Inst{Op: OpXor, Size: 4, A: RegOp(RDI), B: RegOp(RDI)}, "xor edi, edi"},
		{Inst{Op: OpSetcc, Cond: CondE, Size: 1, A: RegOp(RAX)}, "sete al"},
		{Inst{Op: OpShl, Size: 8, A: RegOp(RAX), B: RegOp(RCX)}, "shl rax, cl"},
		{
			Inst{Op: OpLea, Size: 8, A: RegOp(R9), B: MemOpIdx(RBX, RCX, 4, -8)},
			"lea r9, qword [rbx+rcx*4-0x8]",
		},
	}
	for _, tt := range tests {
		if got := tt.inst.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestDisasmText(t *testing.T) {
	var code []byte
	var err error
	for _, inst := range []Inst{
		{Op: OpPop, A: RegOp(RDI)},
		{Op: OpRet},
	} {
		code, err = Append(code, inst, uint64(len(code)))
		if err != nil {
			t.Fatal(err)
		}
	}
	text := DisasmText(code, 0)
	want := "0x00000000: pop rdi\n0x00000001: ret\n"
	if text != want {
		t.Errorf("DisasmText = %q, want %q", text, want)
	}
}

// TestInstSize pins the packed Inst layout: the predecode table, the
// emulator's decode cache and gadget Steps all hold Insts by value.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 88 {
		t.Errorf("isa.Inst is %d bytes, want at most 88", n)
	}
}

// TestAppendAllocs pins the encoder's allocations: appending a ModRM-form
// instruction (register, disp8, SIB + disp32, RIP-relative and absolute
// memory operands, with and without immediates) into a buffer that has
// room allocates nothing.
func TestAppendAllocs(t *testing.T) {
	abs := Operand{Kind: KindMem, Mem: Mem{Disp: 0x601000}}
	rip := Operand{Kind: KindMem, Mem: Mem{RIPRel: true, Disp: 0x40}}
	insts := []Inst{
		{Op: OpMov, Size: 8, A: RegOp(RAX), B: MemOp(RBP, -8)},
		{Op: OpMov, Size: 8, A: MemOp(RBP, -0x200), B: RegOp(R12)},
		{Op: OpMov, Size: 1, A: MemOp(RDX, 0), B: RegOp(RSI)},
		{Op: OpMov, Size: 8, A: MemOp(RBP, -8), B: ImmOp(5)},
		{Op: OpMov, Size: 8, A: RegOp(RAX), B: ImmOp(0x601000)},
		{Op: OpLea, Size: 8, A: RegOp(RDX), B: MemOpIdx(RBX, RCX, 8, 0x1234)},
		{Op: OpAdd, Size: 8, A: RegOp(RAX), B: RegOp(RCX)},
		{Op: OpAdd, Size: 8, A: RegOp(RAX), B: ImmOp(1000)},
		{Op: OpCmp, Size: 8, A: RegOp(RAX), B: ImmOp(3)},
		{Op: OpTest, Size: 8, A: RegOp(RAX), B: ImmOp(0x100)},
		{Op: OpNeg, Size: 8, A: RegOp(RAX)},
		{Op: OpIdiv, Size: 8, A: RegOp(RBX)},
		{Op: OpShl, Size: 8, A: RegOp(RAX), B: ImmOp(3)},
		{Op: OpMovzx, Size: 4, A: RegOp(RAX), B: Operand{Kind: KindMem, Mem: Mem{Base: RAX, HasBase: true}}},
		{Op: OpSetcc, Cond: CondL, Size: 1, A: RegOp(RAX)},
		{Op: OpMov, Size: 8, A: RegOp(RAX), B: rip},
		{Op: OpMov, Size: 8, A: RegOp(RAX), B: abs},
		{Op: OpPush, A: MemOp(RSP, 8)},
	}
	buf := make([]byte, 0, 16)
	for _, inst := range insts {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = Append(buf[:0], inst, 0x401000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Append(%s) allocates %.1f objects, want 0", inst.String(), allocs)
		}
	}
}

// TestTryDecodeFailsWithoutAllocating pins TryDecode to Decode on every
// backend: the same instruction where the bytes decode, false where Decode
// reports a *DecodeError, and not one allocation on the failure path,
// which a predecode pass over mostly undecodable bytes takes at nearly
// every address.
func TestTryDecodeFailsWithoutAllocating(t *testing.T) {
	cases := []struct {
		be   Backend
		good []byte
		bad  [][]byte
		odd  bool // an odd address is misaligned on this backend
	}{
		{X64, []byte{0x5f, 0xc3}, [][]byte{{0x06}, {0x0f, 0xff}, {0xff, 0xff}, {0x8d, 0xc0}}, false},
		{RV64, []byte{0x13, 0x05, 0x15, 0x00}, [][]byte{{0, 0, 0, 0}, {0x7f, 0, 0, 0}}, true},
		{RV64C, []byte{0x05, 0x05}, [][]byte{{0, 0}, {0x7f, 0, 0, 0}}, true},
	}
	const addr = 0x401000
	for _, c := range cases {
		want, err := c.be.Decode(c.good, addr)
		if err != nil {
			t.Fatalf("%s: %x does not decode: %v", c.be.Name(), c.good, err)
		}
		if got, ok := c.be.TryDecode(c.good, addr); !ok || got != want {
			t.Errorf("%s %x: TryDecode = %+v, %v; Decode = %+v", c.be.Name(), c.good, got, ok, want)
		}
		type at struct {
			code []byte
			addr uint64
		}
		bad := []at{}
		for _, code := range c.bad {
			bad = append(bad, at{code, addr})
		}
		if c.odd {
			bad = append(bad, at{c.good, addr + 1})
		}
		for _, b := range bad {
			var de *DecodeError
			if _, err := c.be.Decode(b.code, b.addr); !errors.As(err, &de) {
				t.Fatalf("%s %x at %#x: Decode error %v, want a *DecodeError", c.be.Name(), b.code, b.addr, err)
			}
			if _, ok := c.be.TryDecode(b.code, b.addr); ok {
				t.Errorf("%s %x at %#x: TryDecode succeeds where Decode fails", c.be.Name(), b.code, b.addr)
			}
			if n := testing.AllocsPerRun(100, func() { c.be.TryDecode(b.code, b.addr) }); n != 0 {
				t.Errorf("%s %x at %#x: TryDecode allocates %.1f objects, want 0", c.be.Name(), b.code, b.addr, n)
			}
		}
	}
}
