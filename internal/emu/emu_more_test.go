package emu

import (
	"errors"
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
	m := loadAsm(t, src, 0x401000, rwx, nil)
	m.SetupStack(0x7FFF0000, 0x10000)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.OS.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (patch not observed)", m.OS.ExitCode)
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
	if os.EventFor(SysGetpid) == nil || os.EventFor(SysExit) == nil {
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
	m := loadAsm(t, src, 0x401000, rx, []byte("hello"))
	os := m.OS
	m.SetupStack(0x7FFF0000, 0x10000)
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

// TestLoadPermissions checks that Load maps each section under its flags:
// a write to .text and a jump into .data both fault.
func TestLoadPermissions(t *testing.T) {
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x1000, Flags: rx, Data: []byte{0xC3}})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x2000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: []byte{1}})
	bin.Entry = 0x1000
	m, err := Load(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.RIP != 0x1000 {
		t.Errorf("pc = %#x, want the entry point", m.RIP)
	}
	if m.Mem.PermAt(0x1000)&PermExec == 0 {
		t.Error("text not executable")
	}
	if err := m.Mem.WriteBytes(0x2000, []byte{2}); err != nil {
		t.Errorf("data not writable: %v", err)
	}
	var mf *MemFault
	if err := m.Mem.WriteBytes(0x1000, []byte{0}); !errors.As(err, &mf) || mf.Op != "write" {
		t.Errorf("write to text: %v, want a write fault", err)
	}
	m.RIP = 0x2000
	if _, err := m.Step(); !errors.As(err, &mf) || mf.Op != "exec" || mf.Addr != 0x2000 {
		t.Errorf("jump into data: %v, want an exec fault at 0x2000", err)
	}
}

// TestFetchRechecksChangedPermission runs an instruction into the decode
// cache, then takes execute permission from its page, by Protect (the
// mprotect path) and by a re-Map: the cached instruction must fault each
// time, and run again once the page is executable again.
func TestFetchRechecksChangedPermission(t *testing.T) {
	m := loadAsm(t, "nop\nnop\n", 0x1000, rx, nil)
	step := func() error {
		m.RIP = 0x1000
		_, err := m.Step()
		return err
	}
	if err := step(); err != nil {
		t.Fatal(err)
	}
	var mf *MemFault
	for _, drop := range []func(){
		func() { m.Mem.Protect(0x1000, 1, PermRead) },
		func() { m.Mem.Map(0x1000, 1, PermRead|PermWrite) },
	} {
		drop()
		if err := step(); !errors.As(err, &mf) || mf.Op != "exec" || mf.Addr != 0x1000 {
			t.Fatalf("cached instruction on a non-executable page: %v, want an exec fault at 0x1000", err)
		}
		m.Mem.Protect(0x1000, 1, PermRead|PermExec)
		if err := step(); err != nil {
			t.Fatalf("after restoring execute permission: %v", err)
		}
	}
}

func TestLoadUnknownISA(t *testing.T) {
	bin := textBinary(0x1000, []byte{0xC3}, rx)
	bin.ISA = "pdp11"
	if _, err := Load(bin, nil); err == nil || !strings.Contains(err.Error(), "pdp11") {
		t.Errorf("Load of an unknown ISA tag: %v, want an error naming it", err)
	}
}

// TestLoadMachinesIsolated pins that machines loaded from one binary share
// no memory with each other or with the binary: writes to .data, a
// self-modified .text, an mprotect of .text and of a stack page, a re-Map
// of .data and a write to a zero-filled stack page in earlier machines are
// invisible to the next, to the binary's sections and to a fresh mapping. Machines share the
// binary's image and the zero pages until they write, so each change must
// copy the page it touches.
func TestLoadMachinesIsolated(t *testing.T) {
	r, err := asm.Assemble(`
    movabs rbx, target
    mov byte [rbx+3], 42     # patch the imm8 of "mov rdi, 0"
target:
    mov rdi, 0
    mov rax, 60
    syscall
`, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	patched := r.Labels["target"] + 3
	bin := textBinary(0x401000, r.Code, rwx)
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x600000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: []byte{7}})

	first, err := Load(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	first.SetupStack(0x7FFF0000, 0x10000)
	if err := first.Run(100); err != nil || first.OS.ExitCode != 42 {
		t.Fatalf("self-modifying run: exit %d, %v; want 42", first.OS.ExitCode, err)
	}
	if err := first.Mem.WriteBytes(0x600000, []byte{9}); err != nil {
		t.Fatal(err)
	}

	// A machine that has written nothing yet changes image and zero pages.
	changed, err := Load(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	changed.SetupStack(0x7FFF0000, 0x10000)
	if !changed.Mem.Protect(0x401000, 1, PermRead) || !changed.Mem.Protect(0x7FFF0000, 1, PermRead) {
		t.Fatal("protect: page not mapped")
	}
	changed.Mem.Map(0x600000, 1, PermRead|PermExec)
	const stackByte = 0x7FFF_8000
	if err := changed.Mem.WriteBytes(stackByte, []byte{5}); err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[uint64]Perm{0x401000: PermRead, 0x600000: PermRead | PermExec, 0x7FFF0000: PermRead} {
		if got := changed.Mem.PermAt(addr); got != want {
			t.Fatalf("changed machine's permission at %#x = %b, want %b", addr, got, want)
		}
	}
	if got, err := changed.Mem.ReadBytes(stackByte, 1); err != nil || got[0] != 5 {
		t.Fatalf("changed machine's stack write reads back %v %v", got, err)
	}

	second, err := Load(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	second.SetupStack(0x7FFF0000, 0x10000)
	fresh := NewMemory()
	fresh.Map(0x7FFF0000, 0x10000, PermRead|PermWrite)
	for name, mem := range map[string]*Memory{"second machine": second.Mem, "a fresh mapping": fresh} {
		if got, err := mem.ReadBytes(stackByte, 1); err != nil || got[0] != 0 {
			t.Errorf("%s at %#x: %v %v, want 0", name, uint64(stackByte), got, err)
		}
		if got := mem.PermAt(0x7FFF0000); got != PermRead|PermWrite {
			t.Errorf("%s's stack permission = %b, want rw", name, got)
		}
	}
	if got := second.Mem.PermAt(0x401000); got != PermRead|PermWrite|PermExec {
		t.Errorf("second machine's .text permission = %b, want rwx", got)
	}
	if got := second.Mem.PermAt(0x600000); got != PermRead|PermWrite {
		t.Errorf("second machine's .data permission = %b, want rw", got)
	}
	for _, c := range []struct {
		addr uint64
		want byte
	}{{patched, 0}, {0x600000, 7}} {
		got, err := second.Mem.ReadBytes(c.addr, 1)
		if err != nil || got[0] != c.want {
			t.Errorf("second machine at %#x: %v %v, want %d", c.addr, got, err, c.want)
		}
	}
	if bin.Sections[0].Data[patched-0x401000] != 0 || bin.Sections[1].Data[0] != 7 {
		t.Error("a machine's writes reached the binary's sections")
	}
	if err := second.Run(100); err != nil || second.OS.ExitCode != 42 {
		t.Errorf("second machine's self-modifying run: exit %d, %v; want 42", second.OS.ExitCode, err)
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
	m.poke(0x1000+PageSize-2, []byte{0x5F, 0xC3})
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
	bin := textBinary(0x1000, r.Code, rx)
	run := func() {
		m, err := Load(bin, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.SetupStack(0x7FFF_0000, 0x10000)
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
