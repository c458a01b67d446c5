// Package main's bench harness regenerates every table and figure of the
// paper as a testing.B benchmark (DESIGN.md's per-experiment index). Each
// benchmark runs its experiment once per iteration on a reduced corpus and
// reports headline numbers as custom metrics, so `go test -bench=.` both
// exercises and summarizes the reproduction.
package main

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// benchOpts is the shared reduced-scope configuration.
func benchOpts() experiments.Options {
	return experiments.Options{
		Programs: benchprog.Benchmarks()[:3],
		Planner:  planner.Options{MaxPlans: 12, MaxNodes: 6000},
	}
}

// BenchmarkFig1GadgetCounts regenerates Fig. 1 (E1).
func BenchmarkFig1GadgetCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var orig, tig int
		for _, r := range rows {
			orig += r.Original
			tig += r.Tigress
		}
		b.ReportMetric(float64(orig), "gadgets-original")
		b.ReportMetric(float64(tig), "gadgets-tigress")
		b.ReportMetric(float64(tig)/float64(orig), "increase-x")
	}
}

// BenchmarkTable1GadgetTypes regenerates Table I (E2).
func BenchmarkTable1GadgetTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Type == gadget.TypeReturn {
				b.ReportMetric(r.IncreaseRate, "return-IR-pct")
			}
		}
	}
}

// BenchmarkTable4ToolComparison regenerates Table IV + Table V (E3, E4).
func BenchmarkTable4ToolComparison(b *testing.B) {
	opts := benchOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	for i := 0; i < b.N; i++ {
		rows, gp, err := experiments.Table4(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Obf == "LLVM-Obf" {
				switch r.Tool {
				case "Gadget-Planner":
					b.ReportMetric(float64(r.Total), "gp-payloads")
				case "SGC":
					b.ReportMetric(float64(r.Total), "sgc-payloads")
				case "Angrop":
					b.ReportMetric(float64(r.Total), "angrop-payloads")
				case "ROPGadget":
					b.ReportMetric(float64(r.Total), "ropgadget-payloads")
				}
			}
		}
		stats := experiments.Table5(gp)
		b.ReportMetric(stats[0].Stats.AvgChainLen, "gp-chain-len")
	}
}

// BenchmarkFig5PerObfuscation regenerates Fig. 5 (E5).
func BenchmarkFig5PerObfuscation(b *testing.B) {
	opts := benchOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Gadgets), r.Pass+"-gadgets")
		}
	}
}

// BenchmarkTable6Spec regenerates Table VI (E6) on one SPEC-style program.
func BenchmarkTable6Spec(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(opts)
		if err != nil {
			b.Fatal(err)
		}
		var gp int
		for _, r := range rows {
			gp += r.GP
		}
		b.ReportMetric(float64(gp), "gp-chains")
	}
}

// BenchmarkTable7Performance regenerates Table VII (E8).
func BenchmarkTable7Performance(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Tool == "Gadget-Planner" && r.Stage == "total" {
				b.ReportMetric(r.Seconds, "gp-total-sec")
			}
		}
	}
}

// BenchmarkNetperfCaseStudy regenerates the Section VI-C case study (E7).
func BenchmarkNetperfCaseStudy(b *testing.B) {
	opts := experiments.Options{
		Planner: planner.Options{MaxPlans: 16, MaxNodes: 8000},
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Netperf(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ExploitWorks {
			b.Fatal("exploit failed")
		}
		b.ReportMetric(float64(res.Payloads), "payloads")
	}
}

// BenchmarkAblationSubsumption regenerates E9.
func BenchmarkAblationSubsumption(b *testing.B) {
	opts := benchOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSubsumption(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ReductionFactor, "reduction-x")
	}
}

// BenchmarkAblationGadgetClasses regenerates E10.
func BenchmarkAblationGadgetClasses(b *testing.B) {
	opts := benchOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationGadgetClasses(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "all-classes" {
				b.ReportMetric(float64(r.Payloads), "all-classes")
			}
			if r.Config == "no-deref" {
				b.ReportMetric(float64(r.Payloads), "no-deref")
			}
		}
	}
}

// Micro-benchmarks of the pipeline stages on a fixed obfuscated binary.

func obfuscatedCRC(b *testing.B) *gadget.Pool {
	b.Helper()
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		b.Fatal(err)
	}
	return gadget.Extract(bin, gadget.Options{})
}

// BenchmarkStageExtraction measures stage 1 on obfuscated crc.
func BenchmarkStageExtraction(b *testing.B) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := gadget.Extract(bin, gadget.Options{})
		b.ReportMetric(float64(pool.Size()), "gadgets")
	}
}

// BenchmarkStageSubsumption measures stage 2.
func BenchmarkStageSubsumption(b *testing.B) {
	pool := obfuscatedCRC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min, _ := subsume.Minimize(pool, subsume.Options{})
		b.ReportMetric(float64(min.Size()), "kept")
	}
}

// BenchmarkStagePlanning measures stages 3–4 end to end.
func BenchmarkStagePlanning(b *testing.B) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Analyze(bin, core.Config{Planner: planner.Options{MaxPlans: 8, MaxNodes: 4000}})
		atk := a.FindPayloads(planner.ExecveGoal())
		b.ReportMetric(float64(len(atk.Payloads)), "payloads")
	}
}

// BenchmarkCompileObfuscate measures the toolchain substrate.
func BenchmarkCompileObfuscate(b *testing.B) {
	p, _ := benchprog.ByName("crc")
	for i := 0; i < b.N; i++ {
		if _, err := benchprog.BuildISA(p, obfuscate.Tigress(), 42, ""); err != nil {
			b.Fatal(err)
		}
	}
}
