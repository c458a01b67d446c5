package core

import (
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// attackSig renders a FindAll result for byte-comparison.
func attackSig(attacks map[string]*Attack) string {
	out := ""
	for _, goal := range planner.Goals() {
		atk := attacks[goal.Name]
		out += goal.Name + ":"
		for _, p := range atk.Plans {
			out += p.Signature() + ";"
		}
		for _, pl := range atk.Payloads {
			out += string(pl.Bytes)
		}
		out += "\n"
	}
	return out
}

// TestStoreTransparent pins the store's core contract: Analyze + FindAll
// with a store — cold, then warm from the same store — produce exactly the
// plans and payload bytes of the storeless pipeline, and the warm run's
// stage timings are marked Cached while reporting the original compute
// cost, not the lookup's.
func TestStoreTransparent(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.Build(p, obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000, Timeout: 15 * time.Second}}

	bare := Analyze(bin, cfg)
	ref := attackSig(bare.FindAll())

	store := pipeline.NewStore()
	cfg.Store = store
	cold := Analyze(bin, cfg)
	if got := attackSig(cold.FindAll()); got != ref {
		t.Errorf("cold store run differs from storeless run:\n%s\nvs\n%s", got, ref)
	}
	for _, tm := range cold.Timings {
		if tm.Cached {
			t.Errorf("cold run stage %s marked cached", tm.Name)
		}
	}

	warm := Analyze(bin, cfg)
	if got := attackSig(warm.FindAll()); got != ref {
		t.Error("warm store run differs from storeless run")
	}
	if warm.Pool != cold.Pool {
		t.Error("warm run did not share the minimized pool artifact")
	}
	coldDur := map[string]time.Duration{}
	for _, tm := range cold.Timings {
		coldDur[tm.Name] = tm.Duration
	}
	for _, tm := range warm.Timings {
		if !tm.Cached {
			t.Errorf("warm run stage %s not marked cached", tm.Name)
		}
		if tm.Duration != coldDur[tm.Name] {
			t.Errorf("warm stage %s reports %v, want original cost %v",
				tm.Name, tm.Duration, coldDur[tm.Name])
		}
	}
}

// TestStoreDiskMatrix extends the cache matrix to the persistent tier:
// disk-backed vs memory-only × cold vs warm vs warm-across-process ×
// parallelism 1/2/8 all produce byte-identical plans and payloads, and the
// across-process arm really is served from disk (extraction disk hits).
func TestStoreDiskMatrix(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.Build(p, obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000, Timeout: 15 * time.Second}}

	ref := attackSig(Analyze(bin, cfg).FindAll())

	for _, par := range []int{1, 2, 8} {
		cfg.Parallelism = par
		dir := t.TempDir()

		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		diskStore := pipeline.NewStore().WithDisk(disk)
		cfg.Store = diskStore
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d cold disk-backed run differs from storeless run", par)
		}
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d warm in-process disk-backed run differs", par)
		}

		// Across-process: fresh store and fresh disk handle over the same
		// directory — every artifact must come back through the codec.
		disk2, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = pipeline.NewStore().WithDisk(disk2)
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d warm across-process run differs from storeless run", par)
		}
		var extract pipeline.StageStats
		for _, st := range cfg.Store.Stats() {
			if st.Stage == "extract" {
				extract = st
			}
		}
		if extract.DiskHits == 0 {
			t.Errorf("P=%d across-process run had no extraction disk hits", par)
		}

		// The -nodisk arm: memory-only store, same bytes.
		cfg.Store = pipeline.NewStore()
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d nodisk run differs from storeless run", par)
		}
	}
}

// TestTimedOutPlanNotPersisted: a search cut short by its wall-clock
// timeout depends on how fast the process ran, so its plan artifact must
// stay out of the disk tier — a second process on the same cache directory
// recomputes it — while a search that ran to its node budget persists.
func TestTimedOutPlanNotPersisted(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.Build(p, obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	planStats := func(opts planner.Options) (pipeline.StageStats, *Attack) {
		t.Helper()
		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Parallelism: 1, Planner: opts, Store: pipeline.NewStore().WithDisk(disk)}
		atk := Analyze(bin, cfg).FindPayloads(planner.ExecveGoal())
		for _, st := range cfg.Store.Stats() {
			if st.Stage == pipeline.StagePlan.String() {
				return st, atk
			}
		}
		t.Fatal("no plan stage counters")
		return pipeline.StageStats{}, nil
	}

	timedOut := planner.Options{MaxPlans: 4, MaxNodes: 5000, Timeout: 1}
	if st, atk := planStats(timedOut); !atk.Search.TimedOut || st.Misses != 1 {
		t.Fatalf("first process: timedOut=%t plan misses=%d, want a computed timed-out search",
			atk.Search.TimedOut, st.Misses)
	}
	if st, _ := planStats(timedOut); st.DiskHits != 0 || st.Misses != 1 {
		t.Errorf("second process: plan disk hits=%d misses=%d, want the timed-out search recomputed",
			st.DiskHits, st.Misses)
	}

	complete := planner.Options{MaxPlans: 4, MaxNodes: 5000, Timeout: time.Hour}
	if st, atk := planStats(complete); atk.Search.TimedOut || st.Misses != 1 {
		t.Fatalf("first process: timedOut=%t plan misses=%d, want a computed complete search",
			atk.Search.TimedOut, st.Misses)
	}
	if st, _ := planStats(complete); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("second process: plan disk hits=%d misses=%d, want the complete search read from disk",
			st.DiskHits, st.Misses)
	}
}

// TestStoreWithGadgetFilter: a closure-valued filter cannot be
// fingerprinted, so only extraction is cached — and results still match
// the storeless filtered pipeline.
func TestStoreWithGadgetFilter(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.Build(p, obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(g *gadget.Gadget) bool { return !g.HasCond }
	cfg := Config{
		Planner:      planner.Options{MaxPlans: 2, MaxNodes: 2000, Timeout: 10 * time.Second},
		GadgetFilter: filter,
	}
	bare := Analyze(bin, cfg)

	cfg.Store = pipeline.NewStore()
	a1 := Analyze(bin, cfg)
	a2 := Analyze(bin, cfg)
	if a1.Pool.Size() != bare.Pool.Size() {
		t.Errorf("filtered pool: store %d vs bare %d", a1.Pool.Size(), bare.Pool.Size())
	}
	if a1.RawPool != a2.RawPool {
		t.Error("extraction not shared under GadgetFilter")
	}
	if a1.poolKey != "" {
		t.Errorf("filtered analysis has a pool key %q; plans must not be cached", a1.poolKey)
	}
	// Downstream stages bypass the store: only extract counters move.
	for _, st := range cfg.Store.Stats() {
		if st.Stage != "extract" && (st.Hits != 0 || st.Misses != 0) {
			t.Errorf("stage %s saw traffic under GadgetFilter: %d/%d", st.Stage, st.Hits, st.Misses)
		}
	}
}
