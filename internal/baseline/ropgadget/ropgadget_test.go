package ropgadget

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

func TestMatchPiece(t *testing.T) {
	cases := []struct {
		src  string
		want string
		ok   bool
	}{
		{"pop rdi; ret", "pop rdi", true},
		{"pop rsi; ret", "pop rsi", true},
		{"pop rdx; ret", "pop rdx", true},
		{"pop rax; ret", "pop rax", true},
		{"syscall", "syscall", true},
		{"mov qword [rdi], rsi; ret", "write", true},
		{"pop rbx; ret", "", false},          // not a template register
		{"pop rdi; pop rbx; ret", "", false}, // not exact
		{"mov qword [rsi], rdi; ret", "", false},
		{"pop rdi; ret 8", "", false}, // ret imm breaks the template
	}
	for _, tt := range cases {
		r, err := asm.Assemble(tt.src, 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		name, ok := matchPiece(r.Code, 0x1000)
		if ok != tt.ok || (ok && name != tt.want) {
			t.Errorf("matchPiece(%q) = %q,%v want %q,%v", tt.src, name, ok, tt.want, tt.ok)
		}
	}
}

func TestRunRequiresDataSection(t *testing.T) {
	src := "pop rax; ret; pop rdi; ret; pop rsi; ret; pop rdx; ret; mov qword [rdi], rsi; ret; syscall"
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	// No .data: the classic write-to-data strategy has nowhere to stage
	// "/bin/sh".
	res := (&Tool{}).Run(bin)
	if res.TotalPayloads() != 0 {
		t.Errorf("payloads without .data = %d", res.TotalPayloads())
	}
	_ = isa.RAX
}

func TestGadgetCountIsSyntactic(t *testing.T) {
	// The tool's pool size equals the classic scan, independent of whether
	// the chain template completes.
	r, err := asm.Assemble("ret; ret; ret", 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x1000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	res := (&Tool{}).Run(bin)
	if res.GadgetsTotal != 3 {
		t.Errorf("pool = %d, want 3 (three rets)", res.GadgetsTotal)
	}
}

func TestRunCompleteTemplate(t *testing.T) {
	src := `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    mov qword [rdi], rsi
    ret
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x601000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: make([]byte, 128)})
	res := (&Tool{}).Run(bin)
	if res.PayloadsFor("execve") != 1 {
		t.Fatalf("execve = %d, want 1", res.PayloadsFor("execve"))
	}
	if res.GadgetsUsed == 0 {
		t.Error("used gadgets untracked")
	}
}
