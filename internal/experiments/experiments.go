// Package experiments reproduces every table and figure of the paper's
// evaluation (Section III and VI) as deterministic, structured experiments:
// Fig. 1 (gadget counts), Table I (gadget classes), Table IV (tool
// comparison), Table V (chain properties), Fig. 5 (per-obfuscation risk),
// Table VI (SPEC-style programs), Table VII (per-stage performance), the
// netperf case study (Section VI-C), and the ablations DESIGN.md calls out.
//
// Absolute numbers differ from the paper (the substrate is a from-scratch
// toolchain and emulator, not gcc binaries on hardware); the experiments
// reproduce the paper's *shapes*: who wins, by what rough factor, and which
// obfuscations carry the most risk.
package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// ObfConfig names an obfuscation configuration.
type ObfConfig struct {
	Name   string
	Passes func() []obfuscate.Pass
}

// Configs returns the paper's three build configurations.
func Configs() []ObfConfig {
	return []ObfConfig{
		{Name: "Original", Passes: func() []obfuscate.Pass { return nil }},
		{Name: "LLVM-Obf", Passes: obfuscate.LLVMObf},
		{Name: "Tigress", Passes: obfuscate.Tigress},
	}
}

// Options scope an experiment run.
type Options struct {
	// Programs to include; default benchprog.Benchmarks().
	Programs []benchprog.Program
	// Seed for deterministic obfuscation.
	Seed int64
	// Planner budget per goal.
	Planner planner.Options
	// Quick trims the corpus to three programs for fast smoke runs.
	Quick bool
	// Parallelism is how many experiment cells (program × configuration
	// units of work) run concurrently, and is forwarded to the analysis
	// pipeline's Parallelism knob. 0 = runtime.GOMAXPROCS(0), 1 = serial.
	// Table results are identical at every setting.
	Parallelism int
	// Store is the content-addressed artifact store every build and
	// analysis stage runs through. Nil gets a fresh private store, so each
	// experiment still dedups its own cells; callers running several
	// experiments (cmd/experiments) pass one store to share builds and
	// pools across them. pipeline.NewDisabledStore() gives the -nocache
	// A/B arm. Table results are byte-identical whichever store is used.
	Store *pipeline.Store
}

func (o Options) withDefaults() Options {
	if o.Store == nil {
		o.Store = pipeline.NewStore()
	}
	if o.Programs == nil {
		o.Programs = benchprog.Benchmarks()
	}
	if o.Quick && len(o.Programs) > 3 {
		o.Programs = o.Programs[:3]
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Planner.MaxPlans == 0 {
		o.Planner.MaxPlans = 200
	}
	if o.Planner.MaxNodes == 0 {
		o.Planner.MaxNodes = 10000
	}
	if o.Planner.Timeout == 0 {
		o.Planner.Timeout = 20 * time.Second
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// pipelineParallelism decides each cell's core.Config.Parallelism: when the
// experiment fans cells out, each cell's pipeline runs single-threaded (the
// cores are already busy with sibling cells); a serial cell loop hands the
// pipeline the full budget instead.
func (o Options) pipelineParallelism(cells int) int {
	if cells > 1 && o.Parallelism > 1 {
		return 1
	}
	return o.Parallelism
}

// runCells executes fn(0..n-1) on up to `workers` goroutines and returns the
// lowest-index error (so failures are reported deterministically). Cells must
// write results into index-addressed slots, never append to shared state.
func runCells(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// build compiles (program, configuration) through the artifact store: the
// binary is keyed by source content, pass names, and seed, so concurrent
// cells — and sibling experiments sharing the store — compile each
// configuration exactly once.
func (o Options) build(p benchprog.Program, cfg ObfConfig) (*sbf.Binary, error) {
	bin, err := pipeline.Build(o.Store, p, cfg.Passes(), o.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s|%s: %w", p.Name, cfg.Name, err)
	}
	return bin, nil
}

// gadgetChunks slices the gadget's contiguous instruction-run bytes out of
// its source binary. Direct branches are excluded: their displacement bytes
// are position-dependent and would differ across builds even for identical
// logical gadgets.
func gadgetChunks(src *sbf.Binary, g *gadget.Gadget) [][]byte {
	var chunks [][]byte
	var cur []byte
	var lastEnd uint64
	flush := func() {
		if len(cur) > 0 {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	for i, st := range g.Steps {
		if st.Inst.IsDirectBranch() {
			flush()
			lastEnd = 0
			continue
		}
		if i > 0 && st.Inst.Addr != lastEnd {
			flush()
		}
		sec := src.SectionAt(st.Inst.Addr)
		if sec == nil {
			flush()
			continue
		}
		off := st.Inst.Addr - sec.Addr
		cur = append(cur, sec.Data[off:off+uint64(st.Inst.Len)]...)
		lastEnd = st.Inst.End()
	}
	flush()
	return chunks
}

// IsNewGadget reports whether the gadget's code does not occur anywhere in
// the original binary — i.e. the obfuscator introduced it (the basis for
// Table IV's parenthesized "newly introduced" counts).
func IsNewGadget(src *sbf.Binary, g *gadget.Gadget, origText []byte) bool {
	for _, chunk := range gadgetChunks(src, g) {
		if !bytes.Contains(origText, chunk) {
			return true
		}
	}
	return false
}

// NewPayloads counts attack payloads whose chain relies on at least one
// obfuscation-introduced gadget.
func NewPayloads(src *sbf.Binary, attacks map[string]*core.Attack, origText []byte) int {
	n := 0
	for _, atk := range attacks {
		for _, pl := range atk.Payloads {
			for _, g := range pl.Chain {
				if IsNewGadget(src, g, origText) {
					n++
					break
				}
			}
		}
	}
	return n
}

// origTextOf builds the original binary and returns its text bytes.
func origTextOf(o Options, p benchprog.Program) ([]byte, error) {
	orig, err := o.build(p, Configs()[0])
	if err != nil {
		return nil, err
	}
	sec := orig.Section(".text")
	if sec == nil {
		return nil, fmt.Errorf("experiments: %s has no text", p.Name)
	}
	return sec.Data, nil
}

// CacheSuite runs the deterministic table experiments — Fig. 1, Table I,
// Table IV/V, and the pool-composition table — against opts.Store and
// returns their concatenated renderings. These four share builds, gadget
// scans, extractions, and minimized pools, so they exercise every cacheable
// stage; the timing-sensitive experiments are excluded because their output
// embeds wall-clock numbers that can never be byte-compared.
func CacheSuite(opts Options) (string, error) {
	var sb strings.Builder

	fig1, err := Fig1(opts)
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderFig1(fig1))

	t1, err := Table1(opts)
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderTable1(t1))

	t4, gp, err := Table4(opts)
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderTable4(t4))
	sb.WriteString(RenderTable5(Table5(gp)))

	comp, err := PoolComposition(opts)
	if err != nil {
		return "", err
	}
	sb.WriteString(RenderPoolComposition(comp))
	return sb.String(), nil
}

// poolOf extracts the full gadget pool of a binary (test/diagnostic helper).
func poolOf(bin *sbf.Binary) *gadget.Pool {
	return gadget.Extract(bin, gadget.Options{})
}
