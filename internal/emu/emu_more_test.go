package emu

import (
	"runtime"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

func TestMoreInstructions(t *testing.T) {
	tests := []struct {
		name string
		body string
		want uint64
	}{
		{"xchg", "mov rax, 1; mov rbx, 41; xchg rax, rbx; add rax, rbx", 42},
		{"setb-unsigned", "mov rbx, 1; cmp rbx, 2; setb al; movzx rax, al", 1},
		{"push-mem", "push 7; push qword [rsp]; pop rax; pop rbx; add rax, rbx", 14},
		{"ret-imm", "call f; jmp done; f: ret 0; done: mov rax, 9", 9},
		{"movsxd", "mov rbx, 0xFFFFFFFF; movsxd rax, ebx; neg rax", 1},
		{"sar-cl", "mov rax, -88; mov rcx, 2; sar rax, cl; neg rax", 22},
		{"shr-cl", "mov rax, 88; mov rcx, 2; shr rax, cl", 22},
		{"cqo32", "mov rax, 5; cqo; mov rax, rdx", 0},
		{"byte-store-load", "mov rbx, 0x11AA; push rbx; mov al, byte [rsp]; movzx rax, al", 0xAA},
		{"lea-rip", "lea rax, [rip+0]; sub rax, rax", 0},
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

func TestSelfModifyingCodeExecutes(t *testing.T) {
	// A program that patches its own instruction stream (requires RWX),
	// exercising the icache's fetch-time permission handling.
	src := `
    movabs rbx, target
    mov byte [rbx+3], 42     # patch the imm8 of "mov rdi, 0"
target:
    mov rdi, 0
    mov rax, 60
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachineISA(isa.X64)
	os := NewOS()
	m.OS = os
	m.Mem.Map(0x401000, uint64(len(r.Code)), PermRead|PermWrite|PermExec)
	m.Mem.WriteBytesForce(0x401000, r.Code, PermRead|PermWrite|PermExec)
	m.SetupStack(0x7FFF0000, 0x10000)
	m.RIP = 0x401000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if os.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (patch not observed)", os.ExitCode)
	}
}

func TestSyscallEvents(t *testing.T) {
	src := `
    mov rax, 39              # getpid
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`
	_, os := runAsm2(t, src)
	if os.ExitCode != 4242 {
		t.Errorf("getpid = %d", os.ExitCode)
	}
	if os.EventFor(SysGetpid) == nil || os.LastEvent() == nil {
		t.Error("events not recorded")
	}
}

func runAsm2(t *testing.T, src string) (*Machine, *OS) {
	t.Helper()
	return runAsm(t, src, 0x401000)
}

func TestReadSyscall(t *testing.T) {
	src := `
    mov rax, 0               # read
    mov rdi, 0
    movabs rsi, 0x7FFF1000
    mov rdx, 8
    syscall
    mov rdi, rax             # bytes read
    mov rax, 60
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachineISA(isa.X64)
	os := NewOS()
	os.Stdin.Reset([]byte("hello"))
	m.OS = os
	m.Mem.Map(0x401000, uint64(len(r.Code)), PermRead|PermExec)
	m.Mem.WriteBytesForce(0x401000, r.Code, PermRead|PermExec)
	m.SetupStack(0x7FFF0000, 0x10000)
	m.RIP = 0x401000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if os.ExitCode != 5 {
		t.Errorf("read returned %d", os.ExitCode)
	}
	got, _ := m.Mem.ReadBytes(0x7FFF1000, 5)
	if string(got) != "hello" {
		t.Errorf("buffer = %q", got)
	}
}

func TestMmapSyscall(t *testing.T) {
	src := `
    mov rax, 9               # mmap
    mov rdi, 0
    mov rsi, 0x2000
    mov rdx, 3               # RW
    syscall
    mov rbx, rax
    mov qword [rbx], 77      # must be writable
    mov rdi, qword [rbx]
    mov rax, 60
    syscall
`
	_, os := runAsm2(t, src)
	if os.ExitCode != 77 {
		t.Errorf("mmap page not usable: exit %d", os.ExitCode)
	}
}

func TestLoadBinaryPermissions(t *testing.T) {
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x1000, Flags: sbf.FlagRead | sbf.FlagExec, Data: []byte{0xC3}})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x2000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: []byte{1}})
	m := NewMachineISA(isa.X64)
	m.Mem.LoadBinary(bin)
	if m.Mem.PermAt(0x1000)&PermExec == 0 {
		t.Error("text not executable")
	}
	if m.Mem.PermAt(0x2000)&PermWrite == 0 {
		t.Error("data not writable")
	}
	if err := m.Mem.WriteBytes(0x1000, []byte{0}); err == nil {
		t.Error("text writable")
	}
}

func TestMemFaultMessage(t *testing.T) {
	mf := &MemFault{Addr: 0x1234, Op: "write"}
	if !strings.Contains(mf.Error(), "write") || !strings.Contains(mf.Error(), "0x1234") {
		t.Errorf("fault message = %q", mf.Error())
	}
}

func TestFetchWindowAtPageEdge(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, PageSize, PermRead|PermExec)
	// Instruction bytes at the very end of the mapped page: the window must
	// truncate, not fault.
	m.WriteBytesForce(0x1000+PageSize-2, []byte{0x5F, 0xC3}, PermRead|PermExec)
	win, err := m.FetchWindow(0x1000+PageSize-2, 16)
	if err != nil || len(win) != 2 {
		t.Errorf("window = %d bytes, %v", len(win), err)
	}
	inst, err := isa.Decode(win, 0)
	if err != nil || inst.Op != isa.OpPop {
		t.Errorf("decode at edge: %v %v", inst, err)
	}
}

// TestVerifySizedRunAllocs pins what a payload-verification-sized run
// costs: a fresh machine, one code page, a 64 KiB stack and a few hundred
// steps allocate under 128 KiB in total. The decode cache starts small and
// grows with use, so a short run never pays for the table a long program
// run needs.
func TestVerifySizedRunAllocs(t *testing.T) {
	r, err := asm.Assemble(`
    mov rcx, 100
loop:
    add rax, rcx
    dec rcx
    jnz loop
    mov rax, 60
    syscall
`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		m := NewMachineISA(isa.X64)
		m.OS = NewOS()
		m.Mem.Map(0x1000, uint64(len(r.Code)), PermRead|PermExec)
		m.Mem.WriteBytesForce(0x1000, r.Code, PermRead|PermExec)
		m.SetupStack(0x7FFF_0000, 0x10000)
		m.RIP = 0x1000
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		if m.Steps < 300 {
			t.Fatalf("ran %d steps, want a few hundred", m.Steps)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 128<<10 {
		t.Errorf("verify-sized run allocates %d KiB, want under 128 KiB", per>>10)
	}
}
