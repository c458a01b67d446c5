package codegen_test

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
)

// BenchmarkRun measures one emulated run of the plain x64 crc program: the
// machine's load, its 4 MiB stack and the run to exit.
func BenchmarkRun(b *testing.B) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, nil, 42, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Run(bin, p.Stdin, 0); err != nil {
			b.Fatal(err)
		}
	}
}
