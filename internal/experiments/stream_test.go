package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// streamTestOpts keeps stream-test cells cheap: two generated programs
// (12 cells) under a tiny planning budget.
func streamTestOpts() StreamOptions {
	return StreamOptions{
		Cells: 2 * cellsPerProgram(),
		Seed:  400,
		Planner: planner.Options{
			MaxPlans: 1,
			MaxNodes: 300,
		},
	}
}

// TestStreamTablesIdentical pins the streaming runner's determinism
// contract: the aggregate table renders byte-identically at parallelism
// 1/2/8, with the memory tier bounded so the LRU evictor cycles mid-run
// (down to one resident artifact), and with a disk tier: cold, warm across
// processes, and under a disk budget so small the disk evictor cycles.
func TestStreamTablesIdentical(t *testing.T) {
	// A memory budget far below the ~30 artifacts two programs produce, so
	// determinism is checked under live eviction pressure.
	memStore := func() *pipeline.Store { return pipeline.NewStore().LimitMemory(6) }
	diskStore := func(dir string, maxBytes int64) func() *pipeline.Store {
		return func() *pipeline.Store {
			disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{MaxBytes: maxBytes})
			if err != nil {
				t.Fatal(err)
			}
			return memStore().WithDisk(disk)
		}
	}
	filled, starved := t.TempDir(), t.TempDir()
	type arm struct {
		name  string
		par   int
		store func() *pipeline.Store
	}
	arms := []arm{
		{"p1-store", 1, memStore},
		{"p2-store", 2, memStore},
		{"p8-store", 8, memStore},
		// One resident artifact: almost every stage recomputes.
		{"p1-mem1", 1, func() *pipeline.Store { return pipeline.NewStore().LimitMemory(1) }},
		{"p8-mem1", 8, func() *pipeline.Store { return pipeline.NewStore().LimitMemory(1) }},
		{"p2-disk-cold", 2, diskStore(filled, 0)},
		// A fresh store over the filled directory: a second process's view.
		{"p2-disk-warm", 2, diskStore(filled, 0)},
		{"p2-disk-64k", 2, diskStore(starved, 64<<10)},
	}
	var ref string
	var refEvictions int64
	for i, a := range arms {
		opts := streamTestOpts()
		opts.Parallelism = a.par
		opts.Store = a.store()
		run, err := RunStream(opts)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if run.OutputFailures != 0 {
			t.Errorf("%s: %d output-stability failures", a.name, run.OutputFailures)
		}
		if run.Cells != opts.Cells || run.Programs != 2 {
			t.Errorf("%s: cells/programs = %d/%d, want %d/2", a.name, run.Cells, run.Programs, opts.Cells)
		}
		disk := opts.Store.DiskStats()
		if disk.Corrupt != 0 {
			t.Errorf("%s: %d artifacts read back corrupt", a.name, disk.Corrupt)
		}
		switch a.name {
		case "p2-disk-warm":
			stats := opts.Store.Stats()
			var served, computed int64
			for _, st := range stats {
				served += st.Hits + st.DiskHits
				computed += st.Misses
			}
			if stats[pipeline.StageExtract].DiskHits == 0 || disk.BytesRead == 0 {
				t.Errorf("%s: extraction not served from disk: %+v", a.name, disk)
			}
			if served <= computed {
				t.Errorf("%s: %d artifacts served, %d computed; want mostly served", a.name, served, computed)
			}
		case "p2-disk-64k":
			if disk.Evictions == 0 {
				t.Errorf("%s: 64 KiB disk budget produced no evictions", a.name)
			}
		}
		if i == 0 {
			ref = run.Table
			refEvictions = opts.Store.MemEvictions()
			if ref == "" {
				t.Fatal("empty aggregate table")
			}
			continue
		}
		if run.Table != ref {
			t.Errorf("%s: aggregate table differs from %s\n%s", a.name, arms[0].name,
				diffHint(ref, run.Table))
		}
	}
	if refEvictions == 0 {
		t.Error("bounded memory tier never evicted; budget not binding")
	}
}

// TestStreamRowsOrdered pins the JSONL contract: one row per cell, emitted
// in cell order regardless of worker interleaving, with the deterministic
// fields populated per arm.
func TestStreamRowsOrdered(t *testing.T) {
	var buf bytes.Buffer
	opts := streamTestOpts()
	opts.Parallelism = 8
	opts.Rows = &buf
	run, err := RunStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for dec.More() {
		var row StreamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		if row.Cell != n {
			t.Fatalf("row %d arrived out of order (cell %d)", n, row.Cell)
		}
		if row.Program == "" || row.Class == "" || row.Obf == "" {
			t.Errorf("row %d: missing identity fields: %+v", n, row)
		}
		switch row.Arm {
		case armScan:
			if row.Gadgets <= 0 || row.Pool <= 0 {
				t.Errorf("row %d: scan arm missing counts: %+v", n, row)
			}
			if !row.OutputOK {
				t.Errorf("row %d: output-stability check failed: %+v", n, row)
			}
		case armPlan:
			if row.Pool <= 0 {
				t.Errorf("row %d: plan arm missing pool: %+v", n, row)
			}
		default:
			t.Errorf("row %d: unknown arm %q", n, row.Arm)
		}
		n++
	}
	if n != run.Cells {
		t.Errorf("rows written = %d, want %d", n, run.Cells)
	}
	if run.RowsWritten != n {
		t.Errorf("RowsWritten = %d, want %d", run.RowsWritten, n)
	}
}

// TestStreamCancel pins the cancellation contract: a canceled context
// stops the run promptly and surfaces context.Canceled, and a context
// canceled mid-run (after the first result) still terminates cleanly.
func TestStreamCancel(t *testing.T) {
	// Already-canceled context: no cell should complete.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := streamTestOpts()
	opts.Ctx = ctx
	opts.Parallelism = 2
	if _, err := RunStream(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}

	// Cancel after the first rows flow: the runner must stop and report it.
	ctx, cancel = context.WithCancel(context.Background())
	opts = streamTestOpts()
	opts.Cells = 8 * cellsPerProgram()
	opts.Ctx = ctx
	opts.Parallelism = 2
	opts.Rows = cancelAfterWriter{cancel: cancel}
	if _, err := RunStream(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
}

// cancelAfterWriter cancels its context on the first JSONL row, from the
// collector goroutine — a mid-run cancellation at a deterministic point.
type cancelAfterWriter struct{ cancel context.CancelFunc }

func (w cancelAfterWriter) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}
