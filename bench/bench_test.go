package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

var update = flag.Bool("update", false, "recompute testdata/golden.json through serve.Run")

// TestUpdateGoldens recomputes every cell of every workload through
// serve.Run on a fresh store, replays each payload in the emulator, and
// rewrites the golden digests. Without -update it is skipped: the workload
// smoke test checks the digests.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/golden.json")
	}
	ctx := context.Background()
	golden := make(map[string]string)
	for _, c := range append(append(netperfCells(), corpusCells(12)...), warmSetCells()...) {
		if _, done := golden[c.ID]; done {
			continue
		}
		store := pipeline.NewStore()
		res, err := serve.Run(ctx, store, parallelism, c.Req, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		bin, _, err := buildOf(ctx, store, c.Req)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		for _, g := range res.Goals {
			goal, _ := goalByName(c.Req.ISA, g.Goal)
			for _, p := range g.Payloads {
				pl := &payload.Payload{Bytes: p.Data, Base: p.Base, Entry: p.Entry, Goal: goal}
				if err := payload.Verify(bin, pl, verifySteps); err != nil {
					t.Fatalf("%s: %s payload does not verify: %v", c.ID, g.Goal, err)
				}
			}
		}
		golden[c.ID] = outcomeOf(res).digest()
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d digests to %s", len(golden), goldenPath)
}

// TestWorkloadsSmoke runs one short traced pass of every workload (the
// corpus trimmed to two programs) and requires every op to pass its
// golden, Canon and emulator checks and every metric of BENCHMARK.json to
// be reported.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := run(runConfig{
				Workload:       w.Name,
				Seed:           1,
				Trace:          true,
				Setups:         1,
				CorpusPrograms: 2,
				WorkDir:        dir,
			}, filepath.Join(dir, "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			for _, m := range spec.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not computed", m.Name)
				}
			}
			var out bytes.Buffer
			if err := report(&out, spec, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTracedRebuildMatchesServe checks that the traced pass, which calls
// each layer directly, computes what serve.Run computes: the same binary
// bytes, pool sizes and payloads.
func TestTracedRebuildMatchesServe(t *testing.T) {
	ctx := context.Background()
	for _, c := range []cell{planCell("netperf", "", "x64"), planCell("netperf", "llvm", "rv64c")} {
		store := pipeline.NewStore()
		res, err := serve.Run(ctx, store, parallelism, c.Req, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		want, _, err := buildOf(ctx, store, c.Req)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		got, bin, err := rebuild(newTracer(), c)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", c.ID, err)
		}
		if !bytes.Equal(bin.Marshal(), want.Marshal()) {
			t.Errorf("%s: rebuilt binary differs from serve.Run's", c.ID)
		}
		if got.RawPool != res.RawPool || got.Pool != res.Pool {
			t.Errorf("%s: pools %d/%d, serve.Run %d/%d", c.ID, got.RawPool, got.Pool, res.RawPool, res.Pool)
		}
		if g, w := got.digest(), outcomeOf(res).digest(); g != w {
			t.Errorf("%s: rebuilt outcome %+v, serve.Run %+v", c.ID, got, outcomeOf(res))
		}
	}
}

// TestCalibrationAllocatesNothing keeps the calibration out of
// alloc_mb_per_op and away from the garbage collector.
func TestCalibrationAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibrationBurst() }); n != 0 {
		t.Errorf("calibration burst allocates %v times", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "geomean_ms", Better: "lower", Bound: 0.05}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{shift(-10), "better"},
		{shift(+10), "worse"},
		{shift(+1), "same"},
		{parent, "same"},
	} {
		if got := compareMetric(lower, parent, tc.change).verdict; got != tc.want {
			t.Errorf("change %v: verdict %s, want %s", tc.change, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := compareMetric(lower, noisy, noisy).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}
