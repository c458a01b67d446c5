package emu

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// textBinary wraps code based at base into a one-section x64 binary whose
// entry point is base.
func textBinary(base uint64, code []byte, flags sbf.SectionFlags) *sbf.Binary {
	bin := sbf.New()
	bin.Entry = base
	bin.AddSection(sbf.Section{Name: ".text", Addr: base, Flags: flags, Data: code})
	return bin
}

// loadCode boots code based at base as a one-section binary.
func loadCode(t testing.TB, base uint64, code []byte, flags sbf.SectionFlags, stdin []byte) *Machine {
	t.Helper()
	m, err := Load(textBinary(base, code, flags), stdin)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loadAsm assembles src at base and boots it with loadCode.
func loadAsm(t testing.TB, src string, base uint64, flags sbf.SectionFlags, stdin []byte) *Machine {
	t.Helper()
	r, err := asm.Assemble(src, base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return loadCode(t, base, r.Code, flags, stdin)
}

const (
	rx  = sbf.FlagRead | sbf.FlagExec
	rwx = sbf.FlagRead | sbf.FlagWrite | sbf.FlagExec
)

// runAsm assembles src at base, runs it until exit, and returns machine+OS.
func runAsm(t *testing.T, src string, base uint64) (*Machine, *OS) {
	t.Helper()
	m := loadAsm(t, src, base, rx, nil)
	m.SetupStack(0x7FFF_0000, 0x10000)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, m.OS
}

const exitTail = `
    mov rdi, rax
    mov rax, 60
    syscall
`

func TestArithmeticPrograms(t *testing.T) {
	tests := []struct {
		name string
		body string
		want uint64 // exit code
	}{
		{"add", "mov rax, 2; add rax, 40", 42},
		{"sub", "mov rax, 50; sub rax, 8", 42},
		{"imul", "mov rax, 6; mov rbx, 7; imul rax, rbx", 42},
		{"xor-swap", "mov rax, 1; mov rbx, 41; xor rax, rbx; xor rbx, rax; xor rax, rbx; add rax, rbx", 42},
		{"shl", "mov rax, 21; shl rax, 1", 42},
		{"sar-negative", "mov rax, -84; sar rax, 1; neg rax", 42},
		{"not-neg", "mov rax, 41; not rax; neg rax", 42},
		{"inc-dec", "mov rax, 42; inc rax; dec rax", 42},
		{"lea-math", "mov rbx, 10; lea rax, [rbx+rbx*4-8]", 42},
		{"div", "mov rax, 126; cqo; mov rbx, 3; idiv rbx", 42},
		{"mod", "mov rax, 142; cqo; mov rbx, 100; idiv rbx; mov rax, rdx", 42},
		{"movzx", "mov rax, 0x1234512A; movzx rax, al; sub rax, 0x100 ; add rax, 0x100", 0x2A},
		{"cmov-via-setcc", "mov rbx, 5; cmp rbx, 5; sete al; movzx rax, al; mov rcx, 42; imul rax, rcx", 42},
		{"32bit-zeroext", "mov rax, -1; mov eax, 42", 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, os := runAsm(t, tt.body+exitTail, 0x401000)
			if os.ExitCode != tt.want {
				t.Errorf("exit = %d, want %d", os.ExitCode, tt.want)
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	src := `
    mov rax, 0
    mov rcx, 10
loop:
    add rax, rcx
    dec rcx
    jnz loop
` + exitTail
	_, os := runAsm(t, src, 0x401000)
	if os.ExitCode != 55 {
		t.Errorf("sum 1..10 = %d, want 55", os.ExitCode)
	}
}

func TestSignedVsUnsignedBranches(t *testing.T) {
	// -1 < 1 signed, but -1 > 1 unsigned.
	src := `
    mov rax, 0
    mov rbx, -1
    cmp rbx, 1
    jl signed_less
    jmp done
signed_less:
    add rax, 1
    cmp rbx, 1
    ja unsigned_above
    jmp done
unsigned_above:
    add rax, 2
done:
` + exitTail
	_, os := runAsm(t, src, 0x401000)
	if os.ExitCode != 3 {
		t.Errorf("exit = %d, want 3", os.ExitCode)
	}
}

func TestCallRetAndStack(t *testing.T) {
	src := `
    mov rdi, 40
    call addtwo
` + exitTail + `
addtwo:
    push rbp
    mov rbp, rsp
    lea rax, [rdi+2]
    pop rbp
    ret
`
	_, os := runAsm(t, src, 0x401000)
	if os.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", os.ExitCode)
	}
}

func TestWriteSyscallCapturesStdout(t *testing.T) {
	src := `
    mov rax, 1
    mov rdi, 1
    movabs rsi, msg
    mov rdx, 5
    syscall
    mov rax, 60
    mov rdi, 0
    syscall
msg: .asciz "hello"
`
	_, os := runAsm(t, src, 0x401000)
	if got := os.Stdout.String(); got != "hello" {
		t.Errorf("stdout = %q", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := newMachine(isa.X64)
	// Execute unmapped memory.
	m.RIP = 0xdead000
	if _, err := m.Step(); err == nil {
		t.Error("exec of unmapped memory succeeded")
	}
	var mf *MemFault
	_, err := m.Step()
	if !errors.As(err, &mf) || mf.Op != "exec" {
		t.Errorf("want exec fault, got %v", err)
	}
	// Write to read-only page.
	m.Mem.Map(0x1000, PageSize, PermRead)
	if err := m.Mem.WriteBytes(0x1000, []byte{1}); err == nil {
		t.Error("write to read-only page succeeded")
	}
	// Read from write-only page (no read bit).
	m.Mem.Map(0x2000, PageSize, PermWrite)
	if _, err := m.Mem.ReadBytes(0x2000, 1); err == nil {
		t.Error("read from non-readable page succeeded")
	}
}

func TestMprotectEnablesExecution(t *testing.T) {
	// Write code into an RW page, mprotect it RX, jump to it.
	src := `
    # copy "mov rax, 60; mov rdi, 7; syscall" into the data page? simpler:
    mov rax, 10          # mprotect
    movabs rdi, 0x90000
    mov rsi, 0x1000
    mov rdx, 5           # PROT_READ|PROT_EXEC
    syscall
    movabs rax, 0x90000
    jmp rax
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := asm.Assemble("mov rax, 60; mov rdi, 7; syscall", 0x90000)
	if err != nil {
		t.Fatal(err)
	}
	m := loadCode(t, 0x401000, r.Code, rx, nil)
	os := m.OS
	m.SetupStack(0x7FFF_0000, 0x10000)
	m.Mem.Map(0x90000, PageSize, PermRead|PermWrite)
	if err := m.Mem.WriteBytes(0x90000, payload.Code); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if os.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", os.ExitCode)
	}
	if os.EventFor(SysMprotect) == nil {
		t.Error("no mprotect event recorded")
	}
}

// TestROPChainExecve is the end-to-end primitive the whole repository is
// built around: gadgets in an executable section, a payload on the stack,
// and an observed execve("/bin/sh").
func TestROPChainExecve(t *testing.T) {
	src := `
vuln:
    ret
g_pop_rax:
    pop rax
    ret
g_pop_rdi:
    pop rdi
    ret
g_pop_rsi:
    pop rsi
    ret
g_pop_rdx:
    pop rdx
    ret
g_syscall:
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(textBinary(0x401000, r.Code, rx), nil)
	if err != nil {
		t.Fatal(err)
	}
	os := m.OS
	m.SetupStack(0x7FFE_0000, 0x20000)
	sp := uint64(0x7FFE_0000 + 0x10000) // mid-stack so the chain has room to grow

	// Place "/bin/sh" below the chain on the stack.
	binsh := sp - 0x100
	if err := m.Mem.WriteBytes(binsh, append([]byte("/bin/sh"), 0)); err != nil {
		t.Fatal(err)
	}

	chain := []uint64{
		r.Labels["g_pop_rax"], SysExecve,
		r.Labels["g_pop_rdi"], binsh,
		r.Labels["g_pop_rsi"], 0,
		r.Labels["g_pop_rdx"], 0,
		r.Labels["g_syscall"],
	}
	buf := make([]byte, 8*len(chain))
	for i, v := range chain {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	if err := m.Mem.WriteBytes(sp, buf); err != nil {
		t.Fatal(err)
	}
	m.Regs[isa.RSP] = sp
	m.RIP = r.Labels["vuln"]

	if err := m.Run(1000); err != nil {
		t.Fatalf("run: %v", err)
	}
	ev := os.EventFor(SysExecve)
	if ev == nil {
		t.Fatal("no execve observed")
	}
	if ev.Path != "/bin/sh" {
		t.Errorf("execve path = %q", ev.Path)
	}
	if ev.Args[1] != 0 || ev.Args[2] != 0 {
		t.Errorf("execve argv/envp = %#x/%#x, want 0/0", ev.Args[1], ev.Args[2])
	}
}

// Property test: add/sub flag semantics agree with a direct model.
func TestQuickAddSubFlags(t *testing.T) {
	run := func(op isa.Op, a, b uint64) *Machine {
		inst := isa.Inst{Op: op, Size: 8, A: isa.RegOp(isa.RAX), B: isa.RegOp(isa.RBX)}
		code, err := isa.Encode(inst, 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		m := loadCode(t, 0x1000, code, rx, nil)
		m.Regs[isa.RAX] = a
		m.Regs[isa.RBX] = b
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	f := func(a, b uint64) bool {
		m := run(isa.OpAdd, a, b)
		r := a + b
		if m.Regs[isa.RAX] != r {
			return false
		}
		if m.ZF != (r == 0) || m.SF != (int64(r) < 0) || m.CF != (r < a) {
			return false
		}
		wantOF := (int64(a) >= 0) == (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
		if m.OF != wantOF {
			return false
		}

		m2 := run(isa.OpSub, a, b)
		r2 := a - b
		if m2.Regs[isa.RAX] != r2 || m2.CF != (a < b) || m2.ZF != (r2 == 0) {
			return false
		}
		wantOF2 := (int64(a) >= 0) != (int64(b) >= 0) && (int64(r2) >= 0) != (int64(a) >= 0)
		return m2.OF == wantOF2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property test: every condition code agrees with the signed/unsigned
// comparison it encodes, after a cmp.
func TestQuickCompareConditions(t *testing.T) {
	f := func(a, b int64) bool {
		m := loadAsm(t, "cmp rax, rbx; ret", 0x1000, rx, nil)
		m.SetupStack(0x7FFF0000, 0x1000)
		m.Regs[isa.RAX] = uint64(a)
		m.Regs[isa.RBX] = uint64(b)
		if _, err := m.Step(); err != nil {
			return false
		}
		checks := []struct {
			c    isa.Cond
			want bool
		}{
			{isa.CondE, a == b},
			{isa.CondNE, a != b},
			{isa.CondL, a < b},
			{isa.CondGE, a >= b},
			{isa.CondLE, a <= b},
			{isa.CondG, a > b},
			{isa.CondB, uint64(a) < uint64(b)},
			{isa.CondAE, uint64(a) >= uint64(b)},
			{isa.CondBE, uint64(a) <= uint64(b)},
			{isa.CondA, uint64(a) > uint64(b)},
		}
		for _, ch := range checks {
			if m.condHolds(ch.c) != ch.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStepLimit(t *testing.T) {
	m := loadAsm(t, "self: jmp self", 0x1000, rx, nil)
	if err := m.Run(100); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want step limit", err)
	}
	if m.Steps != 100 {
		t.Errorf("steps = %d", m.Steps)
	}
}

func TestDivErrors(t *testing.T) {
	_, err := asmRunErr(t, "mov rax, 1; cqo; mov rbx, 0; idiv rbx")
	if !errors.Is(err, ErrDivByZero) {
		t.Errorf("err = %v, want div by zero", err)
	}
}

func asmRunErr(t *testing.T, src string) (*Machine, error) {
	t.Helper()
	m := loadAsm(t, src, 0x1000, rx, nil)
	m.SetupStack(0x7FFF0000, 0x1000)
	return m, m.Run(1000)
}

func TestMemoryReadWriteSizes(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, PageSize, PermRead|PermWrite)
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if err := m.Write(0x1100, v, size); err != nil {
			t.Fatal(err)
		}
		got, err := m.Read(0x1100, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("size %d: got %#x, want %#x", size, got, v)
		}
	}
	// Cross-page write and read.
	m.Map(0x2000, 2*PageSize, PermRead|PermWrite)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.WriteBytes(0x2FFC, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0x2FFC, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("cross-page data mismatch: %v", got)
		}
	}
}
