package experiments

// The streaming corpus runner: the scale-out path from the 16-program
// hand-written suite to a generated corpus of hundreds of (program ×
// obfuscation × planner-config) cells. Three properties distinguish it from
// the table experiments in tables.go:
//
//   - Bounded memory. Programs are generated lazily, one window of
//     Parallelism programs at a time; a window's cells run through par.For
//     into index slots and are then collected in cell order. Results are
//     emitted incrementally as JSONL rows plus rolling aggregate tables,
//     and the artifact store's memory tier is LRU-bounded
//     (pipeline.Store.LimitMemory), so a cell's artifacts are released once
//     its neighbors stop sharing them and peak memory is flat in cell
//     count. Nothing ever materializes the full matrix.
//   - Distributional output. Per-(class, configuration) aggregates report
//     mean/median/CI95 gadget counts over the whole corpus — the
//     statistical form of the paper's Table VI/VII claims — and are
//     byte-identical at any worker count and with the store on or off.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Stream arms: every (program, configuration) pair is analyzed under two
// planner configs — a scan-only arm (extraction + minimization + the
// classic gadget count + a per-cell output-stability check) and a planning
// arm (an execve search with a small budget). Arms double as planner
// configurations in the cell matrix.
const (
	armScan = "scan"
	armPlan = "plan"
)

var streamArms = []string{armScan, armPlan}

// cellsPerProgram is the matrix width of one generated program.
func cellsPerProgram() int { return len(Configs()) * len(streamArms) }

// StreamOptions scope one streaming corpus run.
type StreamOptions struct {
	// Ctx cancels the run: no further window is generated, workers stop
	// picking up cells, and RunStream returns the context's error. A cell
	// already inside a pipeline stage runs that stage to completion
	// (artifacts are shared and never cached half-finished; see
	// pipeline.DoCtx), so cancellation is stage-granular, not instant.
	Ctx context.Context
	// Cells is the target cell count; it is rounded up to whole programs
	// (each generated program spans len(Configs())*2 cells). Default 216,
	// or 24 with Quick.
	Cells int
	// Seed is the corpus base seed (program i is generated from Seed+i)
	// and the obfuscation seed.
	Seed int64
	// Parallelism is how many programs one window generates and how many
	// workers run its cells (0 = all cores). Aggregate tables are
	// byte-identical at every setting.
	Parallelism int
	// Planner is the planning arm's search budget; defaults keep cells
	// cheap (MaxPlans 2, MaxNodes 800).
	Planner planner.Options
	// Store is the artifact store cells run through; nil gets a private
	// caching store whose memory tier holds streamMemEntries artifacts.
	Store *pipeline.Store
	// Rows receives one JSON line per cell, in cell order; nil discards.
	Rows io.Writer
	// Quick trims the default cell count for smoke runs.
	Quick bool
}

// streamMemEntries bounds the default store's memory tier.
const streamMemEntries = 48

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Cells <= 0 {
		if o.Quick {
			o.Cells = 24
		} else {
			o.Cells = 216
		}
	}
	if o.Seed == 0 {
		o.Seed = 1000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Store == nil {
		o.Store = pipeline.NewStore().LimitMemory(streamMemEntries)
	}
	if o.Planner.MaxPlans == 0 {
		o.Planner.MaxPlans = 2
	}
	if o.Planner.MaxNodes == 0 {
		o.Planner.MaxNodes = 800
	}
	return o
}

// StreamRow is one cell's JSONL record. Timing fields are wall-clock and
// vary run to run; every other field is deterministic.
type StreamRow struct {
	Cell      int     `json:"cell"`
	Program   string  `json:"program"`
	Class     string  `json:"class"`
	Obf       string  `json:"obf"`
	Arm       string  `json:"arm"`
	TextBytes int     `json:"text_bytes"`
	Gadgets   int     `json:"gadgets,omitempty"`  // scan arm
	RawPool   int     `json:"raw_pool,omitempty"` // scan arm
	Pool      int     `json:"pool"`
	Payloads  int     `json:"payloads,omitempty"` // plan arm
	OutputOK  bool    `json:"output_ok"`          // scan arm: obf output == plain output
	Millis    float64 `json:"ms"`
}

// cellSpec addresses one cell of the streamed matrix.
type cellSpec struct {
	idx   int
	prog  benchprog.Program
	class string
	cfg   int // index into Configs()
	arm   string
}

// streamAgg accumulates one (class, configuration) group's rolling
// aggregates. Values are appended in cell order, so float reductions are
// deterministic at any parallelism.
type streamAgg struct {
	class, obf string
	scanCells  int
	gadgets    []float64
	rawSum     int
	poolSum    int
	textSum    int
	outputBad  int
	planCells  int
	planPool   int
	payloads   int
}

// StreamRun is one streamed pass's outcome.
type StreamRun struct {
	Cells    int
	Programs int
	// Table is the deterministic aggregate rendering (no timing fields);
	// byte-identical across parallelism and store configurations.
	Table string
	// OutputFailures counts scan cells whose obfuscated build did not
	// reproduce the plain build's output (generator safety contract: 0).
	OutputFailures int
	RowsWritten    int
}

// RunStream fans the generated-corpus matrix through the artifact store a
// window of programs at a time and collects the cells in order. See the
// comment at the top of this file for the architecture.
func RunStream(opts StreamOptions) (*StreamRun, error) {
	opts = opts.withDefaults()
	perProg := cellsPerProgram()
	nProgs := (opts.Cells + perProg - 1) / perProg
	res := &StreamRun{Cells: nProgs * perProg, Programs: nProgs}

	// collect writes one row as JSONL and folds it into the rolling
	// aggregates; rows arrive in cell order.
	aggs := map[string]*streamAgg{}
	var aggOrder []string
	var enc *json.Encoder
	if opts.Rows != nil {
		enc = json.NewEncoder(opts.Rows)
	}
	collect := func(row StreamRow) {
		if enc != nil {
			enc.Encode(row)
			res.RowsWritten++
		}
		key := row.Class + "|" + row.Obf
		agg, ok := aggs[key]
		if !ok {
			agg = &streamAgg{class: row.Class, obf: row.Obf}
			aggs[key] = agg
			aggOrder = append(aggOrder, key)
		}
		switch row.Arm {
		case armScan:
			agg.scanCells++
			agg.gadgets = append(agg.gadgets, float64(row.Gadgets))
			agg.rawSum += row.RawPool
			agg.poolSum += row.Pool
			agg.textSum += row.TextBytes
			if !row.OutputOK {
				agg.outputBad++
				res.OutputFailures++
			}
		case armPlan:
			agg.planCells++
			agg.planPool += row.Pool
			agg.payloads += row.Payloads
		}
	}

	classes := benchprog.SizeClasses()
	mix := []int{0, 0, 0, 1, 1, 2}
	for lo := 0; lo < nProgs; lo += opts.Parallelism {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
		var specs []cellSpec
		for pi := lo; pi < min(lo+opts.Parallelism, nProgs); pi++ {
			class := classes[mix[pi%len(mix)]]
			p := benchprog.Generate(opts.Seed+int64(pi), class)
			for cfg := range Configs() {
				for _, arm := range streamArms {
					specs = append(specs, cellSpec{idx: lo*perProg + len(specs), prog: p, class: class.Name, cfg: cfg, arm: arm})
				}
			}
		}
		rows := make([]StreamRow, len(specs))
		err := runCells(opts.Parallelism, len(specs), func(i int) error {
			if err := opts.Ctx.Err(); err != nil {
				return err
			}
			var err error
			rows[i], err = runStreamCell(opts, specs[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			collect(row)
		}
	}
	// A canceled run that raced to completion anyway still reports the
	// cancellation — callers asked for it.
	if err := opts.Ctx.Err(); err != nil {
		return nil, err
	}

	res.Table = renderStreamAggs(aggs, aggOrder)
	return res, nil
}

// runStreamCell executes one matrix cell through the store.
func runStreamCell(opts StreamOptions, spec cellSpec) (StreamRow, error) {
	start := time.Now()
	cfg := Configs()[spec.cfg]
	row := StreamRow{
		Cell:    spec.idx,
		Program: spec.prog.Name,
		Class:   spec.class,
		Obf:     cfg.Name,
		Arm:     spec.arm,
	}
	bin, _, err := pipeline.BuildISACtx(opts.Ctx, opts.Store, spec.prog, cfg.Passes(), opts.Seed, "")
	if err != nil {
		return row, fmt.Errorf("experiments: stream build %s|%s: %w", spec.prog.Name, cfg.Name, err)
	}
	row.TextBytes = bin.CodeSize()

	switch spec.arm {
	case armScan:
		counts, err := countOf(opts.Ctx, opts.Store, bin, spec.prog.Name, cfg.Name)
		if err != nil {
			return row, err
		}
		row.Gadgets = gadget.TotalCount(counts)
		a := core.Analyze(bin, core.Config{Parallelism: 1, Store: opts.Store})
		row.RawPool, row.Pool = a.RawPool.Size(), a.Pool.Size()
		ok, err := streamOutputStable(opts, spec.prog, bin)
		if err != nil {
			return row, err
		}
		row.OutputOK = ok
	case armPlan:
		a := core.Analyze(bin, core.Config{Planner: opts.Planner, Parallelism: 1, Store: opts.Store})
		atk := a.FindPayloads(planner.ExecveGoal())
		row.Pool = a.Pool.Size()
		row.Payloads = len(atk.Payloads)
		row.OutputOK = true
	}
	row.Millis = float64(time.Since(start).Microseconds()) / 1000
	return row, nil
}

// streamMaxSteps caps per-cell emulator replays; generated programs finish
// in well under a million steps even virtualized.
const streamMaxSteps = 80_000_000

// streamOutputStable enforces the generator's validation contract per cell:
// the cell's build must reproduce the plain build's output exactly. The
// plain build comes from the store (shared with the cell's five sibling
// cells); the two emulator replays are the per-cell ground-truth check.
func streamOutputStable(opts StreamOptions, p benchprog.Program, bin *sbf.Binary) (bool, error) {
	plain, _, err := pipeline.BuildISACtx(opts.Ctx, opts.Store, p, nil, opts.Seed, "")
	if err != nil {
		return false, fmt.Errorf("experiments: stream plain build %s: %w", p.Name, err)
	}
	ref, err := benchprog.RunOutput(plain, p, streamMaxSteps)
	if err != nil {
		return false, fmt.Errorf("experiments: stream plain run %s: %w", p.Name, err)
	}
	out, err := benchprog.RunOutput(bin, p, streamMaxSteps)
	if err != nil {
		return false, fmt.Errorf("experiments: stream obf run %s: %w", p.Name, err)
	}
	return ref != "" && out == ref, nil
}

// renderStreamAggs renders the rolling aggregate table: one row per
// (class, configuration) with distributional gadget statistics from the
// scan arm and payload totals from the planning arm. Deliberately free of
// timing fields so the rendering is byte-identical at any parallelism and
// store configuration.
func renderStreamAggs(aggs map[string]*streamAgg, order []string) string {
	// Group by class in generator mix order, then configuration order.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := aggs[order[i]], aggs[order[j]]
		if a.class != b.class {
			return classOrder(a.class) < classOrder(b.class)
		}
		return configOrder(a.obf) < configOrder(b.obf)
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-10s %6s %10s %10s %10s %9s %9s %9s %7s %7s\n",
		"Class", "Obf", "Cells", "GadgMean", "GadgMed", "GadgCI95", "RawPool", "Pool", "Text(B)", "Paylds", "OutBad")
	for _, k := range order {
		a := aggs[k]
		mean, med, ci := distStats(a.gadgets)
		cells := a.scanCells + a.planCells
		fmt.Fprintf(&sb, "%-8s %-10s %6d %10.1f %10.1f %10.1f %9.1f %9.1f %9.1f %7d %7d\n",
			a.class, a.obf, cells, mean, med, ci,
			avg(a.rawSum, a.scanCells), avg(a.poolSum, a.scanCells), avg(a.textSum, a.scanCells),
			a.payloads, a.outputBad)
	}
	return sb.String()
}

func classOrder(name string) int {
	for i, c := range benchprog.SizeClasses() {
		if c.Name == name {
			return i
		}
	}
	return len(benchprog.SizeClasses())
}

func avg(sum, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// distStats returns mean, median, and the 95% confidence half-width of a
// sample, appended in deterministic order by the collector.
func distStats(vals []float64) (mean, median, ci95 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(n)
	var sq float64
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		median = sorted[n/2]
	} else {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	if n > 1 {
		sd := math.Sqrt(sq / float64(n-1))
		ci95 = 1.96 * sd / math.Sqrt(float64(n))
	}
	return mean, median, ci95
}
