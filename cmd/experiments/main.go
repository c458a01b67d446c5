// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all [-quick]
//	experiments -run fig1,table4,netperf
//
// Experiments: fig1, corpus (Fig. 1's gadget growth over 36 generated
// programs, 6 with -quick, per size class with mean, median and CI95),
// table1, table4 (includes table5), composition, fig5, table6, table7,
// netperf, ablation, and isa (gadget counts and pools per instruction-set
// backend). -run all selects every experiment. An unknown name is an
// error. The end-to-end benchmark lives in bench/ (bash bench/run.sh).
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
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiment is one -run name and the code that prints it.
type experiment struct {
	name string
	run  func() error
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	which := fs.String("run", "all", "comma-separated experiments, or all")
	quick := fs.Bool("quick", false, "trim the corpus for a fast pass")
	seed := fs.Int64("seed", 42, "obfuscation seed")
	sf := cliutil.RegisterStore(fs).WithParallel(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := sf.Open()
	if err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Parallelism: sf.Parallelism(), Store: store}
	if *quick {
		opts.Programs = benchprog.Benchmarks()[:3]
		opts.Planner = planner.Options{MaxPlans: 12, MaxNodes: 6000}
	}

	exps := []experiment{
		{"fig1", func() error {
			rows, err := experiments.Fig1(opts)
			if err != nil {
				return err
			}
			section(stdout, "Fig. 1 — gadget counts, original vs obfuscated")
			fmt.Fprint(stdout, experiments.RenderFig1(rows))
			return nil
		}},
		{"corpus", func() error {
			rows, err := experiments.Fig1Corpus(opts)
			if err != nil {
				return err
			}
			section(stdout, "Fig. 1 — generated corpus")
			fmt.Fprint(stdout, experiments.RenderFig1Corpus(rows))
			return nil
		}},
		{"table1", func() error {
			rows, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			section(stdout, "Table I — gadget classes and increase rate")
			fmt.Fprint(stdout, experiments.RenderTable1(rows))
			return nil
		}},
		{"table4", func() error {
			rows, gp, err := experiments.Table4(opts)
			if err != nil {
				return err
			}
			section(stdout, "Table IV — tools x obfuscations payload matrix")
			fmt.Fprint(stdout, experiments.RenderTable4(rows))
			section(stdout, "Table V — chain properties (Gadget-Planner)")
			fmt.Fprint(stdout, experiments.RenderTable5(experiments.Table5(gp)))
			return nil
		}},
		{"composition", func() error {
			rows, err := experiments.PoolComposition(opts)
			if err != nil {
				return err
			}
			section(stdout, "Pool composition — gadget classes available per build")
			fmt.Fprint(stdout, experiments.RenderPoolComposition(rows))
			return nil
		}},
		{"fig5", func() error {
			rows, err := experiments.Fig5(opts)
			if err != nil {
				return err
			}
			section(stdout, "Fig. 5 — per-obfuscation attack surface")
			fmt.Fprint(stdout, experiments.RenderFig5(rows))
			return nil
		}},
		{"table6", func() error {
			rows, err := experiments.Table6(opts)
			if err != nil {
				return err
			}
			section(stdout, "Table VI — SPEC-style programs")
			fmt.Fprint(stdout, experiments.RenderTable6(rows))
			return nil
		}},
		{"table7", func() error {
			rows, err := experiments.Table7(opts)
			if err != nil {
				return err
			}
			section(stdout, "Table VII — per-stage performance (obfuscated netperf)")
			fmt.Fprint(stdout, experiments.RenderTable7(rows))
			return nil
		}},
		{"netperf", func() error {
			res, err := experiments.Netperf(opts)
			if err != nil {
				return err
			}
			section(stdout, "Section VI-C — netperf case study")
			fmt.Fprint(stdout, experiments.RenderNetperf(res))
			fmt.Fprintln(stdout)
			return nil
		}},
		{"ablation", func() error {
			sub, err := experiments.AblationSubsumption(opts)
			if err != nil {
				return err
			}
			section(stdout, "Ablation — subsumption testing")
			fmt.Fprint(stdout, experiments.RenderAblationSubsumption(sub))
			cls, err := experiments.AblationGadgetClasses(opts)
			if err != nil {
				return err
			}
			section(stdout, "Ablation — gadget classes")
			fmt.Fprint(stdout, experiments.RenderAblationClasses(cls))
			return nil
		}},
		{"isa", func() error {
			rows, err := experiments.ISASurface(opts)
			if err != nil {
				return err
			}
			section(stdout, "Attack surface per backend — aligned vs compressed RISC-V")
			fmt.Fprint(stdout, experiments.RenderISASurface(rows))
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
		if selected[e.name] || selected["all"] {
			if err := e.run(); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "\n%s\n", store.StatsLine())
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n===== %s =====\n", title)
}
