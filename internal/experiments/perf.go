package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/baseline/angrop"
	"github.com/nofreelunch/gadget-planner/internal/baseline/sgc"
	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// Table7Row is one (tool, stage) performance entry (paper Table VII: the
// obfuscated netperf analysis).
type Table7Row struct {
	Tool    string
	Stage   string
	Seconds float64
	AllocMB float64
	// Cached marks a stage served from the artifact store; Seconds is then
	// the recorded cost of the original computation, not this run's lookup.
	Cached bool
}

// Table7 measures per-stage time and allocation on obfuscated netperf-sim.
// Timing-sensitive: the tools run sequentially on purpose — concurrent cells
// would contend for cores and distort every wall-clock number. The netperf
// build and the staged analysis run through the artifact store — timings
// stay meaningful because stage rows report artifact compute cost (a hit
// reports the original computation's cost and is marked Cached).
func Table7(opts Options) ([]Table7Row, error) {
	opts = opts.withDefaults()
	bin, err := opts.build(benchprog.Netperf(), Configs()[1]) // LLVM-Obf
	if err != nil {
		return nil, err
	}
	var rows []Table7Row

	// Angrop.
	start := time.Now()
	(&angrop.Tool{}).Run(bin)
	rows = append(rows, Table7Row{Tool: "Angrop", Stage: "total", Seconds: time.Since(start).Seconds()})

	// SGC.
	start = time.Now()
	(&sgc.Tool{}).Run(bin)
	rows = append(rows, Table7Row{Tool: "SGC", Stage: "total", Seconds: time.Since(start).Seconds()})

	// Gadget-Planner, staged.
	a := core.Analyze(bin, core.Config{Planner: opts.Planner, Store: opts.Store})
	a.FindAll()
	var gpTotal float64
	for _, t := range a.Timings {
		row := Table7Row{
			Tool:    "Gadget-Planner",
			Stage:   t.Name,
			Seconds: t.Duration.Seconds(),
			AllocMB: float64(t.AllocBytes) / (1 << 20),
			Cached:  t.Cached,
		}
		gpTotal += row.Seconds
		rows = append(rows, row)
	}
	rows = append(rows, Table7Row{Tool: "Gadget-Planner", Stage: "total", Seconds: gpTotal})
	return rows, nil
}

// RenderTable7 prints Table VII.
func RenderTable7(rows []Table7Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-15s %-20s %10s %10s\n", "Tool", "Stage", "Time(s)", "Alloc(MB)")
	for _, r := range rows {
		mark := ""
		if r.Cached {
			mark = " (cached)"
		}
		fmt.Fprintf(&sb, "%-15s %-20s %10.3f %10.1f%s\n", r.Tool, r.Stage, r.Seconds, r.AllocMB, mark)
	}
	return sb.String()
}

// AblationSubsumptionRow reports stage-2's effect (paper Section VI-D:
// "reduce the set of gadgets by an average factor of 2.97").
type AblationSubsumptionRow struct {
	Program         string
	PoolBefore      int
	PoolAfter       int
	ReductionFactor float64
	PlanTimeWith    time.Duration
	PlanTimeWithout time.Duration
}

// AblationSubsumption compares planning with and without pool minimization.
// Timing-sensitive (it reports plan times), so programs run sequentially.
// Builds and analyses run through the artifact store; the reported plan
// times are the planning stage's artifact compute cost, which a warm store
// reproduces instead of re-measuring.
func AblationSubsumption(opts Options) ([]AblationSubsumptionRow, error) {
	opts = opts.withDefaults()
	var rows []AblationSubsumptionRow
	for _, p := range opts.Programs {
		bin, err := opts.build(p, Configs()[1]) // LLVM-Obf
		if err != nil {
			return nil, err
		}
		cfgWith := core.Config{Planner: opts.Planner, Store: opts.Store}
		cfgWithout := core.Config{Planner: opts.Planner, SkipSubsume: true, Store: opts.Store}

		aWith := core.Analyze(bin, cfgWith)
		aWith.FindPayloads(planner.ExecveGoal())
		with := planTime(aWith.Timings)

		aWithout := core.Analyze(bin, cfgWithout)
		aWithout.FindPayloads(planner.ExecveGoal())
		without := planTime(aWithout.Timings)

		rows = append(rows, AblationSubsumptionRow{
			Program:         p.Name,
			PoolBefore:      aWith.SubsumeStats.Before,
			PoolAfter:       aWith.SubsumeStats.After,
			ReductionFactor: aWith.SubsumeStats.ReductionFactor(),
			PlanTimeWith:    with,
			PlanTimeWithout: without,
		})
	}
	return rows, nil
}

// planTime sums the planning-stage rows of an analysis's timing table.
func planTime(timings []core.StageTiming) time.Duration {
	var d time.Duration
	for _, t := range timings {
		if strings.HasPrefix(t.Name, "planning:") {
			d += t.Duration
		}
	}
	return d
}

// RenderAblationSubsumption prints the ablation.
func RenderAblationSubsumption(rows []AblationSubsumptionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %8s %8s %12s %12s\n",
		"Program", "Before", "After", "Factor", "Plan(with)", "Plan(w/o)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %8d %8d %7.2fx %12s %12s\n",
			r.Program, r.PoolBefore, r.PoolAfter, r.ReductionFactor,
			r.PlanTimeWith.Round(time.Millisecond), r.PlanTimeWithout.Round(time.Millisecond))
	}
	return sb.String()
}

// AblationClassesRow reports payload counts when gadget classes are removed
// from the pool (DESIGN.md E10).
type AblationClassesRow struct {
	Config   string
	Payloads int
}

// AblationGadgetClasses disables gadget classes one at a time on an
// obfuscated program.
func AblationGadgetClasses(opts Options) ([]AblationClassesRow, error) {
	opts = opts.withDefaults()
	p := opts.Programs[0]
	bin, err := opts.build(p, Configs()[1])
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name   string
		filter func(*gadget.Gadget) bool
	}{
		{"all-classes", nil},
		{"no-conditional", func(g *gadget.Gadget) bool { return !g.HasCond }},
		{"no-merged-dj", func(g *gadget.Gadget) bool { return !g.Merged }},
		{"no-indirect", func(g *gadget.Gadget) bool {
			return g.JmpType != gadget.TypeUIJ && g.JmpType != gadget.TypeCIJ
		}},
		{"no-deref", func(g *gadget.Gadget) bool { return !g.Effect.HasDerefs() }},
		{"return-only", func(g *gadget.Gadget) bool {
			return g.JmpType == gadget.TypeReturn && !g.HasCond && !g.Merged &&
				!g.Effect.HasDerefs() || g.JmpType == gadget.TypeSyscall
		}},
	}
	var rows []AblationClassesRow
	for _, cfg := range configs {
		a := core.Analyze(bin, core.Config{Planner: opts.Planner, GadgetFilter: cfg.filter, Store: opts.Store})
		rows = append(rows, AblationClassesRow{
			Config:   cfg.name,
			Payloads: core.TotalPayloads(a.FindAll()),
		})
	}
	return rows, nil
}

// RenderAblationClasses prints the class ablation.
func RenderAblationClasses(rows []AblationClassesRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s\n", "Pool", "Payloads")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10d\n", r.Config, r.Payloads)
	}
	return sb.String()
}
