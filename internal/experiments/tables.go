package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/baseline"
	"github.com/nofreelunch/gadget-planner/internal/baseline/angrop"
	"github.com/nofreelunch/gadget-planner/internal/baseline/ropgadget"
	"github.com/nofreelunch/gadget-planner/internal/baseline/sgc"
	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// Fig1Row is one program's gadget counts across build configurations
// (paper Fig. 1).
type Fig1Row struct {
	Program  string
	Original int
	LLVMObf  int
	Tigress  int
}

// Fig1 counts classically-scanned gadgets per program and configuration.
// Programs are independent cells, so they run on opts.Parallelism workers.
func Fig1(opts Options) ([]Fig1Row, error) {
	opts = opts.withDefaults()
	rows := make([]Fig1Row, len(opts.Programs))
	err := runCells(opts.Parallelism, len(opts.Programs), func(i int) error {
		p := opts.Programs[i]
		row := Fig1Row{Program: p.Name}
		for _, cfg := range Configs() {
			bin, err := opts.build(p, cfg)
			if err != nil {
				return err
			}
			counts, err := countOf(context.TODO(), opts.Store, bin, p.Name, cfg.Name)
			if err != nil {
				return err
			}
			n := gadget.TotalCount(counts)
			switch cfg.Name {
			case "Original":
				row.Original = n
			case "LLVM-Obf":
				row.LLVMObf = n
			case "Tigress":
				row.Tigress = n
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig1 prints the figure as a table.
func RenderFig1(rows []Fig1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s %8s %8s\n",
		"Program", "Original", "LLVM-Obf", "Tigress", "LLVM-x", "Tig-x")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %10d %10d %10d %7.2fx %7.2fx\n",
			r.Program, r.Original, r.LLVMObf, r.Tigress,
			ratio(r.LLVMObf, r.Original), ratio(r.Tigress, r.Original))
	}
	return sb.String()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// CorpusRow is one (size class, configuration) group of gadget counts over
// the generated corpus: the distributional form of Fig. 1.
type CorpusRow struct {
	Class    string
	Obf      string
	Programs int
	Mean     float64
	Median   float64
	CI95     float64 // half-width of the mean's 95% confidence interval
	Growth   float64 // Mean over the class's Original mean
}

// The generated corpus's size: 36 programs, or one small-heavy mix cycle
// of benchprog.GeneratedCorpus with Quick, so every class has a row.
const (
	corpusPrograms      = 36
	quickCorpusPrograms = 6
)

// Fig1Corpus counts classically-scanned gadgets over the generated corpus
// and summarizes them per size class and configuration. Each program is one
// cell; its counts go to an index slot and are reduced in program order, so
// the table is identical at any worker count. Every obfuscated build must
// reproduce the plain build's output, or the experiment fails.
func Fig1Corpus(opts Options) ([]CorpusRow, error) {
	opts = opts.withDefaults()
	n := corpusPrograms
	if opts.Quick {
		n = quickCorpusPrograms
	}
	progs := benchprog.GeneratedCorpus(opts.Seed, n)
	configs := Configs()
	counts := make([][]int, n)
	err := runCells(opts.Parallelism, n, func(i int) error {
		p := progs[i]
		counts[i] = make([]int, len(configs))
		var plain string
		for ci, cfg := range configs {
			bin, err := opts.build(p, cfg)
			if err != nil {
				return err
			}
			res, err := codegen.Run(bin, p.Stdin, 0)
			if err != nil {
				return fmt.Errorf("experiments: run %s|%s: %w", p.Name, cfg.Name, err)
			}
			// Configs()[0] is the plain build.
			if ci == 0 {
				plain = res.Stdout
				if plain == "" {
					return fmt.Errorf("experiments: %s: plain build printed nothing", p.Name)
				}
			} else if res.Stdout != plain {
				return fmt.Errorf("experiments: %s|%s printed %q, the plain build %q", p.Name, cfg.Name, res.Stdout, plain)
			}
			c, err := countOf(context.TODO(), opts.Store, bin, p.Name, cfg.Name)
			if err != nil {
				return err
			}
			counts[i][ci] = gadget.TotalCount(c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []CorpusRow
	for _, class := range benchprog.SizeClasses() {
		// Generated programs are named "gen-<class>-s<seed>".
		prefix := "gen-" + class.Name + "-"
		var origMean float64
		for ci, cfg := range configs {
			var vals []float64
			for i, p := range progs {
				if strings.HasPrefix(p.Name, prefix) {
					vals = append(vals, float64(counts[i][ci]))
				}
			}
			row := CorpusRow{Class: class.Name, Obf: cfg.Name, Programs: len(vals)}
			row.Mean, row.Median, row.CI95 = distStats(vals)
			if ci == 0 {
				origMean = row.Mean
			}
			row.Growth = row.Mean / origMean
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFig1Corpus prints the generated-corpus table.
func RenderFig1Corpus(rows []CorpusRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-10s %6s %10s %10s %10s %8s\n",
		"Class", "Obf", "Progs", "Mean", "Median", "CI95", "Growth")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-10s %6d %10.1f %10.1f %10.1f %7.2fx\n",
			r.Class, r.Obf, r.Programs, r.Mean, r.Median, r.CI95, r.Growth)
	}
	return sb.String()
}

// distStats returns the mean, the median and the 95% confidence
// half-width of the mean of a sample.
func distStats(vals []float64) (mean, median, ci95 float64) {
	n := len(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(n)
	var sq float64
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	if n%2 == 1 {
		median = sorted[n/2]
	} else {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	if n > 1 {
		ci95 = 1.96 * math.Sqrt(sq/float64(n-1)) / math.Sqrt(float64(n))
	}
	return mean, median, ci95
}

// Table1Row is one gadget class's average counts (paper Table I).
type Table1Row struct {
	Type         gadget.JmpType
	Original     float64
	Obfuscated   float64 // mean of LLVM-Obf and Tigress builds
	IncreaseRate float64 // percent
}

// Table1 computes per-class average gadget counts across the corpus.
// Each program is one cell; per-program partial sums are reduced in program
// order, so the averages are identical at any worker count.
func Table1(opts Options) ([]Table1Row, error) {
	opts = opts.withDefaults()
	partials := make([]map[gadget.JmpType][3]float64, len(opts.Programs))
	err := runCells(opts.Parallelism, len(opts.Programs), func(i int) error {
		part := map[gadget.JmpType][3]float64{}
		for ci, cfg := range Configs() {
			p := opts.Programs[i]
			bin, err := opts.build(p, cfg)
			if err != nil {
				return err
			}
			counts, err := countOf(context.TODO(), opts.Store, bin, p.Name, cfg.Name)
			if err != nil {
				return err
			}
			for t, n := range counts {
				s := part[t]
				s[ci] += float64(n)
				part[t] = s
			}
		}
		partials[i] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	sums := map[gadget.JmpType][3]float64{}
	for _, part := range partials {
		for t, ps := range part {
			s := sums[t]
			for ci := range ps {
				s[ci] += ps[ci]
			}
			sums[t] = s
		}
	}
	nProg := float64(len(opts.Programs))
	var rows []Table1Row
	for _, t := range []gadget.JmpType{
		gadget.TypeReturn, gadget.TypeUDJ, gadget.TypeUIJ,
		gadget.TypeCDJ, gadget.TypeCIJ, gadget.TypeSyscall,
	} {
		s := sums[t]
		orig := s[0] / nProg
		obf := (s[1] + s[2]) / (2 * nProg)
		ir := 0.0
		if orig > 0 {
			ir = 100 * (obf - orig) / orig
		}
		rows = append(rows, Table1Row{Type: t, Original: orig, Obfuscated: obf, IncreaseRate: ir})
	}
	return rows, nil
}

// RenderTable1 prints Table I.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %12s %8s\n", "Type", "Original", "Obfuscated", "IR")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12.1f %12.1f %7.1f%%\n",
			r.Type, r.Original, r.Obfuscated, r.IncreaseRate)
	}
	return sb.String()
}

// Table4Row is one (configuration, tool) aggregate over the corpus
// (paper Table IV).
type Table4Row struct {
	Obf       string
	Tool      string
	PoolTotal int // gadgets collected
	PoolUsed  int // gadgets appearing in chains
	Execve    int
	Mprotect  int
	Mmap      int
	Total     int
	NewTotal  int // payloads relying on obfuscation-introduced gadgets
}

// t4Cell is one (program, configuration) contribution to Table IV: row
// deltas for every tool plus the Gadget-Planner attacks.
type t4Cell struct {
	deltas  []Table4Row // one per tool, Obf/Tool set, counters are deltas
	attacks map[string]*pipeline.Attack
}

// Table4 runs all four tools over the corpus per configuration. The
// (program, configuration) cells are independent, so they run on
// opts.Parallelism workers; cell results are reduced in program-major order,
// which reproduces the sequential aggregation exactly.
func Table4(opts Options) ([]Table4Row, map[string][]*pipeline.Attack, error) {
	opts = opts.withDefaults()

	configs := Configs()
	nCells := len(opts.Programs) * len(configs)
	cells := make([]t4Cell, nCells)
	pipePar := opts.pipelineParallelism(nCells)
	err := runCells(opts.Parallelism, nCells, func(i int) error {
		p := opts.Programs[i/len(configs)]
		cfg := configs[i%len(configs)]
		origText, err := origTextOf(opts, p)
		if err != nil {
			return err
		}
		bin, err := opts.build(p, cfg)
		if err != nil {
			return err
		}
		// Tools are built per cell: a Tool value may keep run state, so
		// sharing instances across concurrent cells would race. SGC gets
		// the same search budget as Gadget-Planner; its handicap is its
		// gadget selection, not its allowance (paper Section VI).
		tools := []baseline.Tool{&ropgadget.Tool{}, &angrop.Tool{}, &sgc.Tool{
			MaxPlans: opts.Planner.MaxPlans,
			MaxNodes: opts.Planner.MaxNodes,
		}}
		cell := t4Cell{}
		for _, tool := range tools {
			res := tool.Run(bin)
			row := Table4Row{Obf: cfg.Name, Tool: res.ToolName}
			row.PoolTotal = res.GadgetsTotal
			row.PoolUsed = res.GadgetsUsed
			row.Execve = res.PayloadsFor("execve")
			row.Mprotect = res.PayloadsFor("mprotect")
			row.Mmap = res.PayloadsFor("mmap")
			row.Total = res.TotalPayloads()
			if cfg.Name != "Original" {
				for _, c := range res.Chains {
					if !c.Verified {
						continue
					}
					for _, g := range c.Gadgets {
						if IsNewGadget(bin, g, origText) {
							row.NewTotal++
							break
						}
					}
				}
			}
			cell.deltas = append(cell.deltas, row)
		}
		// Gadget-Planner.
		a := core.Analyze(bin, core.Config{Planner: opts.Planner, Parallelism: pipePar, Store: opts.Store})
		attacks := a.FindAll()
		row := Table4Row{Obf: cfg.Name, Tool: "Gadget-Planner"}
		row.PoolTotal = a.Pool.Size()
		used := map[uint64]bool{}
		for _, atk := range attacks {
			for _, pl := range atk.Payloads {
				for _, g := range pl.Chain {
					used[g.Location] = true
				}
			}
		}
		row.PoolUsed = len(used)
		row.Execve = len(attacks["execve"].Payloads)
		row.Mprotect = len(attacks["mprotect"].Payloads)
		row.Mmap = len(attacks["mmap"].Payloads)
		row.Total = core.TotalPayloads(attacks)
		if cfg.Name != "Original" {
			row.NewTotal = NewPayloads(bin, attacks, origText)
		}
		cell.deltas = append(cell.deltas, row)
		cell.attacks = attacks
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	rowIdx := map[string]*Table4Row{}
	var order []string
	gpPlans := map[string][]*pipeline.Attack{}
	for _, cell := range cells {
		for _, d := range cell.deltas {
			k := d.Obf + "|" + d.Tool
			row, ok := rowIdx[k]
			if !ok {
				row = &Table4Row{Obf: d.Obf, Tool: d.Tool}
				rowIdx[k] = row
				order = append(order, k)
			}
			row.PoolTotal += d.PoolTotal
			row.PoolUsed += d.PoolUsed
			row.Execve += d.Execve
			row.Mprotect += d.Mprotect
			row.Mmap += d.Mmap
			row.Total += d.Total
			row.NewTotal += d.NewTotal
		}
		gpPlans[cell.deltas[len(cell.deltas)-1].Obf] = append(
			gpPlans[cell.deltas[len(cell.deltas)-1].Obf],
			cell.attacks["execve"], cell.attacks["mprotect"], cell.attacks["mmap"])
	}

	var rows []Table4Row
	for _, k := range order {
		rows = append(rows, *rowIdx[k])
	}
	sort.SliceStable(rows, func(i, j int) bool {
		oi := configOrder(rows[i].Obf)
		oj := configOrder(rows[j].Obf)
		if oi != oj {
			return oi < oj
		}
		return toolOrder(rows[i].Tool) < toolOrder(rows[j].Tool)
	})
	return rows, gpPlans, nil
}

func configOrder(name string) int {
	switch name {
	case "Original":
		return 0
	case "LLVM-Obf":
		return 1
	default:
		return 2
	}
}

func toolOrder(name string) int {
	switch name {
	case "ROPGadget":
		return 0
	case "Angrop":
		return 1
	case "SGC":
		return 2
	default:
		return 3
	}
}

// RenderTable4 prints Table IV.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-15s %10s %6s %8s %9s %6s %8s\n",
		"Obf", "Tool", "Pool", "Used", "execve", "mprotect", "mmap", "Total")
	for _, r := range rows {
		total := fmt.Sprintf("%d", r.Total)
		if r.Obf != "Original" {
			total = fmt.Sprintf("%d (+%d)", r.Total, r.NewTotal)
		}
		fmt.Fprintf(&sb, "%-10s %-15s %10d %6d %8d %9d %6d %8s\n",
			r.Obf, r.Tool, r.PoolTotal, r.PoolUsed, r.Execve, r.Mprotect, r.Mmap, total)
	}
	return sb.String()
}

// Table5Row is one tool's chain-property summary (paper Table V).
type Table5Row struct {
	Tool  string
	Stats core.ChainStats
}

// Table5 computes chain diversity/complexity for the Gadget-Planner chains
// Table4 found. The baseline rows follow from their constructions: ROPGadget
// and Angrop build 100%-return chains of 2-instruction gadgets; SGC adds
// indirect jumps but never conditional or merged direct-jump gadgets.
func Table5(gpAttacks map[string][]*pipeline.Attack) []Table5Row {
	var plans []*planner.Plan
	for _, list := range gpAttacks {
		for _, atk := range list {
			plans = append(plans, atk.Plans...)
		}
	}
	return []Table5Row{{Tool: "Gadget-Planner", Stats: core.Summarize(plans)}}
}

// RenderTable5 prints Table V.
func RenderTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-15s %10s %10s %6s %6s %6s %6s\n",
		"Tool", "GadgetLen", "ChainLen", "Ret", "IJ", "DJ", "CJ")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-15s %10.1f %10.1f %5.0f%% %5.0f%% %5.0f%% %5.0f%%\n",
			r.Tool, r.Stats.AvgGadgetLen, r.Stats.AvgChainLen,
			r.Stats.PctRet, r.Stats.PctIndirect, r.Stats.PctDirect, r.Stats.PctCond)
	}
	return sb.String()
}

// Fig5Row is one obfuscation pass's attack-surface contribution (paper
// Fig. 5): payload counts when only that pass is applied.
type Fig5Row struct {
	Pass        string
	Gadgets     int // classic gadget count
	Payloads    int
	NewPayloads int
}

// Fig5 measures each individual obfuscation pass, plus the self-
// modification post-link transform (which — uniquely — *hides* the static
// surface while leaving the decoded runtime image fully exploitable; see
// obfuscate.SelfModifyBinary).
func Fig5(opts Options) ([]Fig5Row, error) {
	opts = opts.withDefaults()
	passes := obfuscate.AllPassNames()
	if len(opts.Programs) == 0 {
		rows := make([]Fig5Row, 0, len(passes)+1)
		for _, name := range passes {
			rows = append(rows, Fig5Row{Pass: name})
		}
		return append(rows, Fig5Row{Pass: "selfmod"}), nil
	}

	// One cell per (pass, program), plus per-program self-modification
	// cells; partial rows are reduced in pass-major order.
	nCells := (len(passes) + 1) * len(opts.Programs)
	parts := make([]Fig5Row, nCells)
	pipePar := opts.pipelineParallelism(nCells)
	err := runCells(opts.Parallelism, nCells, func(i int) error {
		pi, p := i/len(opts.Programs), opts.Programs[i%len(opts.Programs)]
		if pi == len(passes) {
			// Self-modification: static scan of the encoded image.
			plain, err := opts.build(p, Configs()[0])
			if err != nil {
				return err
			}
			sm, _, err := pipeline.SelfModifyCtx(context.TODO(), opts.Store, plain, byte(opts.Seed)|1)
			if err != nil {
				return err
			}
			counts, err := countOf(context.TODO(), opts.Store, sm, p.Name, "selfmod")
			if err != nil {
				return err
			}
			part := Fig5Row{Pass: "selfmod", Gadgets: gadget.TotalCount(counts)}
			a := core.Analyze(sm, core.Config{Planner: opts.Planner, Parallelism: pipePar, Store: opts.Store})
			part.Payloads = core.TotalPayloads(a.FindAll())
			parts[i] = part
			return nil
		}
		passName := passes[pi]
		cfg := ObfConfig{Name: passName, Passes: func() []obfuscate.Pass {
			ps, err := obfuscate.ByName(passName)
			if err != nil {
				return nil
			}
			return []obfuscate.Pass{ps}
		}}
		origText, err := origTextOf(opts, p)
		if err != nil {
			return err
		}
		bin, err := opts.build(p, cfg)
		if err != nil {
			return err
		}
		counts, err := countOf(context.TODO(), opts.Store, bin, p.Name, passName)
		if err != nil {
			return err
		}
		part := Fig5Row{Pass: passName, Gadgets: gadget.TotalCount(counts)}
		a := core.Analyze(bin, core.Config{Planner: opts.Planner, Parallelism: pipePar, Store: opts.Store})
		attacks := a.FindAll()
		part.Payloads = core.TotalPayloads(attacks)
		part.NewPayloads = NewPayloads(bin, attacks, origText)
		parts[i] = part
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Fig5Row, 0, len(passes)+1)
	for i, part := range parts {
		if i%len(opts.Programs) == 0 {
			rows = append(rows, Fig5Row{Pass: part.Pass})
		}
		row := &rows[len(rows)-1]
		row.Gadgets += part.Gadgets
		row.Payloads += part.Payloads
		row.NewPayloads += part.NewPayloads
	}
	return rows, nil
}

// RenderFig5 prints the figure as a table.
func RenderFig5(rows []Fig5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %10s %12s\n", "Pass", "Gadgets", "Payloads", "NewPayloads")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %10d %10d %12d\n", r.Pass, r.Gadgets, r.Payloads, r.NewPayloads)
	}
	return sb.String()
}

// Table6Row is one SPEC-style program's per-tool chain counts (paper
// Table VI).
type Table6Row struct {
	Benchmark string
	Obf       string
	Gadgets   int
	RG        int
	Angrop    int
	SGC       int
	GP        int
}

// Table6 runs the comparison on the SPEC-style corpus. Each
// (program, configuration) pair is one concurrent cell filling its own row.
func Table6(opts Options) ([]Table6Row, error) {
	opts.Programs = benchprog.Spec()
	opts = opts.withDefaults()
	configs := Configs()
	nCells := len(opts.Programs) * len(configs)
	rows := make([]Table6Row, nCells)
	pipePar := opts.pipelineParallelism(nCells)
	err := runCells(opts.Parallelism, nCells, func(i int) error {
		p := opts.Programs[i/len(configs)]
		cfg := configs[i%len(configs)]
		bin, err := opts.build(p, cfg)
		if err != nil {
			return err
		}
		counts, err := countOf(context.TODO(), opts.Store, bin, p.Name, cfg.Name)
		if err != nil {
			return err
		}
		row := Table6Row{Benchmark: p.Name, Obf: cfg.Name, Gadgets: gadget.TotalCount(counts)}
		row.RG = (&ropgadget.Tool{}).Run(bin).TotalPayloads()
		row.Angrop = (&angrop.Tool{}).Run(bin).TotalPayloads()
		row.SGC = (&sgc.Tool{}).Run(bin).TotalPayloads()
		a := core.Analyze(bin, core.Config{Planner: opts.Planner, Parallelism: pipePar, Store: opts.Store})
		row.GP = core.TotalPayloads(a.FindAll())
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable6 prints Table VI.
func RenderTable6(rows []Table6Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-10s %9s %4s %7s %4s %4s\n",
		"Benchmark", "Obf", "Gadgets", "RG", "Angrop", "SGC", "GP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-10s %9d %4d %7d %4d %4d\n",
			r.Benchmark, r.Obf, r.Gadgets, r.RG, r.Angrop, r.SGC, r.GP)
	}
	return sb.String()
}

// PoolCompositionRow reports which gadget classes exist in the minimized
// pool per build configuration. Conditional-jump, merged direct-jump and
// indirect-jump gadgets appear only after obfuscation — the pool-level view
// of the increased attack surface.
type PoolCompositionRow struct {
	Obf         string
	Pool        int
	Conditional int
	MergedDJ    int
	Indirect    int
	Deref       int
}

// PoolComposition classifies minimized-pool gadgets across the corpus.
// (configuration, program) pairs are independent cells; per-cell partial
// counts are reduced per configuration.
func PoolComposition(opts Options) ([]PoolCompositionRow, error) {
	opts = opts.withDefaults()
	configs := Configs()
	if len(opts.Programs) == 0 {
		rows := make([]PoolCompositionRow, 0, len(configs))
		for _, cfg := range configs {
			rows = append(rows, PoolCompositionRow{Obf: cfg.Name})
		}
		return rows, nil
	}
	nCells := len(configs) * len(opts.Programs)
	parts := make([]PoolCompositionRow, nCells)
	pipePar := opts.pipelineParallelism(nCells)
	err := runCells(opts.Parallelism, nCells, func(i int) error {
		cfg := configs[i/len(opts.Programs)]
		p := opts.Programs[i%len(opts.Programs)]
		bin, err := opts.build(p, cfg)
		if err != nil {
			return err
		}
		part := PoolCompositionRow{Obf: cfg.Name}
		a := core.Analyze(bin, core.Config{Parallelism: pipePar, Store: opts.Store})
		part.Pool = a.Pool.Size()
		for _, g := range a.Pool.Gadgets {
			if g.HasCond {
				part.Conditional++
			}
			if g.Merged {
				part.MergedDJ++
			}
			if g.JmpType == gadget.TypeUIJ || g.JmpType == gadget.TypeCIJ {
				part.Indirect++
			}
			if g.Effect.HasDerefs() {
				part.Deref++
			}
		}
		parts[i] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PoolCompositionRow, 0, len(configs))
	for i, part := range parts {
		if i%len(opts.Programs) == 0 {
			rows = append(rows, PoolCompositionRow{Obf: part.Obf})
		}
		row := &rows[len(rows)-1]
		row.Pool += part.Pool
		row.Conditional += part.Conditional
		row.MergedDJ += part.MergedDJ
		row.Indirect += part.Indirect
		row.Deref += part.Deref
	}
	return rows, nil
}

// RenderPoolComposition prints the class table.
func RenderPoolComposition(rows []PoolCompositionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s %8s\n",
		"Obf", "Pool", "CondJ", "MergedDJ", "Indirect", "Deref")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8d %8d %8d %8d %8d\n",
			r.Obf, r.Pool, r.Conditional, r.MergedDJ, r.Indirect, r.Deref)
	}
	return sb.String()
}
