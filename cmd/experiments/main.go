// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all [-quick]
//	experiments -run fig1,table4,netperf
//	experiments -run stream [-cells N] [-streamjsonl rows.jsonl]
//
// Experiments: fig1, table1, table4 (includes table5), composition, fig5,
// table6, table7, netperf, ablation, isa (gadget counts and pools per
// instruction-set backend), and stream (the generated-corpus streaming
// runner's aggregate table; -cells sizes the corpus and -streamjsonl writes
// its per-cell rows). -run all selects every experiment except stream, whose
// corpus dwarfs the paper experiments'. An unknown name is an error. The
// end-to-end benchmark lives in bench/ (bash bench/run.sh).
//
// All experiments of one invocation share a content-addressed artifact
// store, so a build, gadget scan, extraction, or minimized pool computed by
// one experiment is reused by every later one. With -cachedir (or
// GP_CACHE_DIR) the store is additionally backed by a persistent disk tier,
// so artifacts survive across invocations; -cachedir "" turns the disk tier
// off even with GP_CACHE_DIR set (results are identical).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiment is one -run name and the code that prints it.
type experiment struct {
	name string
	run  func() error
}

func run() error {
	which := flag.String("run", "all", "comma-separated experiments, or all")
	quick := flag.Bool("quick", false, "trim the corpus for a fast pass")
	seed := flag.Int64("seed", 42, "obfuscation seed")
	sf := cliutil.RegisterStore(flag.CommandLine).WithParallel(flag.CommandLine)
	cells := flag.Int("cells", 0, "stream: target cell count (0 = 216, or 24 with -quick)")
	streamJSONL := flag.String("streamjsonl", "", "stream: write the per-cell rows as JSON lines to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	flag.Parse()

	store, err := sf.Open()
	if err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Parallelism: sf.Parallelism(), Store: store}
	if *quick {
		opts.Programs = benchprog.Benchmarks()[:3]
		opts.Planner = planner.Options{MaxPlans: 12, MaxNodes: 6000, Timeout: 15 * time.Second}
	}

	exps := []experiment{
		{"fig1", func() error {
			rows, err := experiments.Fig1(opts)
			if err != nil {
				return err
			}
			section("Fig. 1 — gadget counts, original vs obfuscated")
			fmt.Print(experiments.RenderFig1(rows))
			return nil
		}},
		{"table1", func() error {
			rows, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			section("Table I — gadget classes and increase rate")
			fmt.Print(experiments.RenderTable1(rows))
			return nil
		}},
		{"table4", func() error {
			rows, gp, err := experiments.Table4(opts)
			if err != nil {
				return err
			}
			section("Table IV — tools x obfuscations payload matrix")
			fmt.Print(experiments.RenderTable4(rows))
			section("Table V — chain properties (Gadget-Planner)")
			fmt.Print(experiments.RenderTable5(experiments.Table5(gp)))
			return nil
		}},
		{"composition", func() error {
			rows, err := experiments.PoolComposition(opts)
			if err != nil {
				return err
			}
			section("Pool composition — gadget classes available per build")
			fmt.Print(experiments.RenderPoolComposition(rows))
			return nil
		}},
		{"fig5", func() error {
			rows, err := experiments.Fig5(opts)
			if err != nil {
				return err
			}
			section("Fig. 5 — per-obfuscation attack surface")
			fmt.Print(experiments.RenderFig5(rows))
			return nil
		}},
		{"table6", func() error {
			rows, err := experiments.Table6(opts)
			if err != nil {
				return err
			}
			section("Table VI — SPEC-style programs")
			fmt.Print(experiments.RenderTable6(rows))
			return nil
		}},
		{"table7", func() error {
			rows, err := experiments.Table7(opts)
			if err != nil {
				return err
			}
			section("Table VII — per-stage performance (obfuscated netperf)")
			fmt.Print(experiments.RenderTable7(rows))
			return nil
		}},
		{"netperf", func() error {
			res, err := experiments.Netperf(opts)
			if err != nil {
				return err
			}
			section("Section VI-C — netperf case study")
			fmt.Print(experiments.RenderNetperf(res))
			fmt.Println()
			return nil
		}},
		{"ablation", func() error {
			sub, err := experiments.AblationSubsumption(opts)
			if err != nil {
				return err
			}
			section("Ablation — subsumption testing")
			fmt.Print(experiments.RenderAblationSubsumption(sub))
			cls, err := experiments.AblationGadgetClasses(opts)
			if err != nil {
				return err
			}
			section("Ablation — gadget classes")
			fmt.Print(experiments.RenderAblationClasses(cls))
			return nil
		}},
		{"isa", func() error {
			rows, err := experiments.ISASurface(opts)
			if err != nil {
				return err
			}
			section("Attack surface per backend — aligned vs compressed RISC-V")
			fmt.Print(experiments.RenderISASurface(rows))
			return nil
		}},
		{"stream", func() error {
			sopts := experiments.StreamOptions{
				Cells:       *cells,
				Seed:        *seed,
				Parallelism: sf.Parallelism(),
				Quick:       *quick,
			}
			var rows *os.File
			if *streamJSONL != "" {
				f, err := os.Create(*streamJSONL)
				if err != nil {
					return err
				}
				rows, sopts.Rows = f, f
			}
			res, err := experiments.RunStream(sopts)
			if rows != nil {
				if cerr := rows.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return err
			}
			section(fmt.Sprintf("Stream — %d cells over %d generated programs", res.Cells, res.Programs))
			fmt.Print(res.Table)
			return nil
		}},
	}

	// Check every name before running anything, so a typo fails fast
	// instead of silently printing nothing.
	selected := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	valid := []string{"all"}
	for _, e := range exps {
		valid = append(valid, e.name)
	}
	for name := range selected {
		if !slices.Contains(valid, name) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range exps {
		// stream is opt-in: its corpus dwarfs the paper experiments'.
		if selected[e.name] || selected["all"] && e.name != "stream" {
			if err := e.run(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("\n%s\n", store.StatsLine())
	return nil
}

func section(title string) {
	fmt.Printf("\n===== %s =====\n", title)
}
