package subsume_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// BenchmarkSubsumeParallel measures concurrent subsumption testing of the
// obfuscated netperf-sim pool at several worker counts, reporting speedup
// versus the single-worker baseline (~1.0 on one core).
func BenchmarkSubsumeParallel(b *testing.B) {
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "")
	if err != nil {
		b.Fatal(err)
	}
	pool := gadget.Extract(bin, gadget.Options{})

	// Best-of-three manual baseline (nested testing.Benchmark would
	// deadlock on the benchmark lock).
	baseline := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		subsume.Minimize(pool, subsume.Options{Parallelism: 1})
		if d := time.Since(start); d < baseline {
			baseline = d
		}
	}

	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			var after int
			for i := 0; i < b.N; i++ {
				min, _ := subsume.Minimize(pool, subsume.Options{Parallelism: par})
				after = min.Size()
			}
			if after == 0 || after >= pool.Size() {
				b.Fatalf("no reduction: %d -> %d", pool.Size(), after)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(baseline.Nanoseconds())/perOp, "speedup-x")
		})
	}
}
