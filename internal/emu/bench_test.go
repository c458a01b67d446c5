package emu

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
)

// BenchmarkStepLoop measures raw interpretation speed on a tight loop.
func BenchmarkStepLoop(b *testing.B) {
	src := `
    mov rcx, 1000
loop:
    add rax, rcx
    xor rax, 0x5A5A
    dec rcx
    jnz loop
    ret
`
	r, err := asm.Assemble(src, 0x1000)
	if err != nil {
		b.Fatal(err)
	}
	m := loadCode(b, 0x1000, r.Code, rx, nil)
	m.SetupStack(0x7FFF0000, 0x10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RIP = 0x1000
		m.Regs[4] = 0x7FFF0000 + 0x8000 // rsp
		// Push a halting return target.
		m.Mem.Write(m.Regs[4], 0x1000+uint64(len(r.Code)), 8)
		steps := m.Steps
		for {
			if _, err := m.Step(); err != nil {
				break // ret to unmapped halts the loop
			}
			if m.Steps-steps > 100_000 {
				b.Fatal("runaway")
			}
		}
	}
	b.ReportMetric(float64(m.Steps)/float64(b.N), "steps/op")
}

// BenchmarkMemoryAccess measures the paged-memory fast path.
func BenchmarkMemoryAccess(b *testing.B) {
	m := NewMemory()
	m.Map(0x10000, 16*PageSize, PermRead|PermWrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x10000 + uint64(i%1000)*8
		if err := m.Write(addr, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Read(addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}
