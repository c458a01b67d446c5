// Command bench is the repository's end-to-end benchmark. Four workloads
// drive the analysis service (serve.Run in process, or gpd over a unix
// socket); each run reports eight end-to-end metrics, checks every result
// against golden digests, and with -trace 1 adds a traced pass that breaks
// the work down by layer. README.md describes the workloads and metrics.
//
//	bench -workload netperf-cold -seed 7 -seconds 20 -trace 0
//	bench                               # every workload, each in its own process
//	bench -compare 'parent/*.json' 'change/*.json'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// benchSpec is BENCHMARK.json: the workloads, the metrics each run prints
// and their regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory when run from the root, its parent when run from bench/.
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json not found in . or ..: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is one workload run: what the last output line reports, plus the
// sample counts and per-cell rows that -out keeps for inspection.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Passes    int                `json:"passes"`
	Samples   int                `json:"samples"`
	Setups    int                `json:"setups"`
	Metrics   map[string]float64 `json:"metrics"`
	Cells     []cellRow          `json:"cells"`
	Spans     string             `json:"spans,omitempty"`
}

// cellRow is one cell's timed latency (information only; not gated).
type cellRow struct {
	ID       string  `json:"id"`
	N        int     `json:"n"`
	MedianMs float64 `json:"median_ms"`
}

// run executes one workload run in this process.
func run(cfg runConfig, spansPath string) (*result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.Workload)
	}
	golden, err := goldens()
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:   cfg,
		ctx:   context.Background(),
		cells: w.cells(cfg),
		rng:   rand.New(rand.NewPCG(uint64(cfg.Seed), 0)),
	}
	r.rec = newRecorder(r.cells, golden)
	if cfg.Trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", cfg.Workload, err)
	}

	res := &result{
		Workload:  cfg.Workload,
		Seed:      cfg.Seed,
		Seconds:   r.window.Seconds(),
		Trace:     cfg.Trace,
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Errors:    r.rec.errs,
		Passes:    r.passes,
		Samples:   len(r.rec.all),
		Setups:    len(r.setupS),
		Metrics:   make(map[string]float64),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var meds []float64
	for i, lat := range r.rec.lat {
		if len(lat) == 0 {
			continue
		}
		m := median(lat)
		meds = append(meds, m)
		res.Cells = append(res.Cells, cellRow{ID: r.cells[i].ID, N: len(lat), MedianMs: m})
	}
	ops := float64(len(r.rec.all))
	raw := map[string]float64{
		"ops_per_s":       ops / r.window.Seconds(),
		"geomean_ms":      geomean(meds),
		"slowest_cell_ms": slices.Max(meds),
		"p50_ms":          median(r.rec.all),
		"p99_ms":          percentile(r.rec.all, 0.99),
		"setup_s":         median(r.setupS),
	}
	// Wall-clock metrics are scaled to the reference host speed (calib.go),
	// set-up by the calibration taken at the set-ups, the rest by the
	// window's; the raw values stay in the result file.
	calib, setupCalib := median(r.calib), median(r.setupCalib)
	for name, v := range raw {
		res.Metrics["raw."+name] = v
		switch name {
		case "ops_per_s":
			res.Metrics[name] = v * calib / refCalibMs
		case "setup_s":
			res.Metrics[name] = v * refCalibMs / setupCalib
		default:
			res.Metrics[name] = v * refCalibMs / calib
		}
	}
	res.Metrics["calib_ms"], res.Metrics["setup_calib_ms"] = calib, setupCalib
	res.Metrics["alloc_mb_per_op"] = float64(r.alloc) / ops / 1e6
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	if r.tr != nil {
		for k, v := range layerMetrics(r.tr.spans, r.counters, len(r.rec.all), r.rec.driftCells()) {
			res.Metrics[k] = v
		}
		if err := r.tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("bench: write spans: %w", err)
		}
		res.Spans = spansPath
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// report prints every metric by name with its unit, then the result as the
// last line: one JSON object with correct, attempted, failed and metrics.
func report(w io.Writer, spec *benchSpec, res *result) error {
	share := 0.0
	if res.Attempted > 0 {
		share = 100 * float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s seed %d: %d passes, %d timed samples in %.1f s, %d set-ups; failed ops %d/%d (%.2f%%)\n",
		res.Workload, res.Seed, res.Passes, res.Samples, res.Seconds, res.Setups,
		res.Failed, res.Attempted, share)
	fmt.Fprintf(w, "  calibration %.3f ms, at set-up %.3f ms (reference %.0f ms): times scaled by %.3f, set-up by %.3f\n",
		res.Metrics["calib_ms"], res.Metrics["setup_calib_ms"], refCalibMs,
		refCalibMs/res.Metrics["calib_ms"], refCalibMs/res.Metrics["setup_calib_ms"])
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	// A traced run prints the per-layer metrics, any other the end-to-end ones.
	shown := spec.EndToEnd
	if res.Trace {
		shown = spec.PerLayer
	}
	metrics := make(map[string]value)
	for _, m := range shown {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("bench: BENCHMARK.json lists %q, which the benchmark does not compute", m.Name)
		}
		fmt.Fprintf(w, "  %-30s %16s %s\n", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit)
		metrics[m.Name] = value{v, m.Unit}
	}
	if res.Spans != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.Spans)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func writeResults(path string, rs []*result) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
		seed     = flag.Int64("seed", 42, "seed of the request order")
		seconds  = flag.Float64("seconds", 0, "timed window per run (default: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "write the run results to this JSON file")
		compare  = flag.Bool("compare", false, "compare two sets of result files: -compare 'parent/*.json' 'change/*.json'")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("bench: -compare takes two file patterns: parent runs, then change runs")
		}
		return compareRuns(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1")
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	workRoot := ".bench_build"
	if *workload == "" {
		return runAll(spec, workRoot, *seed, *seconds, *trace, *out)
	}

	workDir := filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(workDir)
	spans := filepath.Join(workRoot, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	if *out != "" {
		spans = strings.TrimSuffix(*out, ".json") + ".spans.jsonl"
	}
	res, err := run(runConfig{
		Workload:       *workload,
		Seed:           *seed,
		Seconds:        *seconds,
		Trace:          *trace == 1,
		Setups:         3,
		CorpusPrograms: 12,
		WorkDir:        workDir,
	}, spans)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeResults(*out, []*result{res}); err != nil {
			return err
		}
	}
	return report(os.Stdout, spec, res)
}

// runAll runs every workload of BENCHMARK.json in its own child process,
// one after another, so each has its own heap and peak RSS.
func runAll(spec *benchSpec, workRoot string, seed int64, seconds float64, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	var all []*result
	failed := false
	for _, w := range spec.Workloads {
		path := filepath.Join(workRoot, fmt.Sprintf("all-%d-%s.json", os.Getpid(), w.Name))
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench: %s: %w", w.Name, err)
		}
		data, err := os.ReadFile(path)
		os.Remove(path)
		if err != nil {
			return err
		}
		var rs []*result
		if err := json.Unmarshal(data, &rs); err != nil {
			return fmt.Errorf("bench: %s result: %w", w.Name, err)
		}
		for _, r := range rs {
			failed = failed || !r.Correct
		}
		all = append(all, rs...)
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("bench: some ops failed")
	}
	return nil
}

// readResults loads every result file matching pattern, in name order.
func readResults(pattern string) ([]*result, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("bench: no result files match %q", pattern)
	}
	sort.Strings(files)
	var rs []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var part []*result
		if err := json.Unmarshal(data, &part); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f, err)
		}
		rs = append(rs, part...)
	}
	return rs, nil
}
