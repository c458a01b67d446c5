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
func attackSig(attacks map[string]*pipeline.Attack) string {
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
// with a shared store — cold, then warm from the same store — produce
// exactly the plans and payload bytes of a private store, and the warm run's
// stage timings are marked Cached while reporting the original compute
// cost, not the lookup's.
func TestStoreTransparent(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000}}

	bare := Analyze(bin, cfg)
	ref := attackSig(bare.FindAll())

	store := pipeline.NewStore()
	cfg.Store = store
	cold := Analyze(bin, cfg)
	if got := attackSig(cold.FindAll()); got != ref {
		t.Errorf("cold store run differs from the private-store run:\n%s\nvs\n%s", got, ref)
	}
	for _, tm := range cold.Timings {
		if tm.Cached {
			t.Errorf("cold run stage %s marked cached", tm.Name)
		}
	}

	warm := Analyze(bin, cfg)
	if got := attackSig(warm.FindAll()); got != ref {
		t.Error("warm store run differs from the private-store run")
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
// across-process arm really is served from disk (extraction disk hits). So
// do a one-entry memory tier and a 64 KiB disk budget while both evict.
func TestStoreDiskMatrix(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000}}

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
			t.Errorf("P=%d cold disk-backed run differs from the private-store run", par)
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
			t.Errorf("P=%d warm across-process run differs from the private-store run", par)
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

		// A memory-only store, same bytes.
		cfg.Store = pipeline.NewStore()
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d memory-only run differs from the private-store run", par)
		}

		// One resident artifact: the memory tier evicts on every insert,
		// so later stages recompute what they read back.
		cfg.Store = pipeline.NewStore().LimitMemory(1)
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d memory-starved run differs from the private-store run", par)
		}
		if cfg.Store.MemEvictions() == 0 {
			t.Errorf("P=%d one-entry memory tier never evicted", par)
		}

		// A disk budget smaller than the run's artifacts: the disk tier
		// evicts while it serves, and reads nothing back corrupt.
		disk3, err := pipeline.OpenDisk(t.TempDir(), pipeline.DiskOptions{MaxBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = pipeline.NewStore().WithDisk(disk3)
		if got := attackSig(Analyze(bin, cfg).FindAll()); got != ref {
			t.Errorf("P=%d disk-budget run differs from the private-store run", par)
		}
		if st := cfg.Store.DiskStats(); st.Evictions == 0 || st.Corrupt != 0 {
			t.Errorf("P=%d 64 KiB disk budget: %d evictions, %d corrupt; want some and none", par, st.Evictions, st.Corrupt)
		}
	}
}

// TestStoreWithGadgetFilter: a filtered pool is keyed by the gadgets the
// filter kept. A repeated filtered analysis hits minimize and plan, a
// different closure that keeps the same gadgets hits too, a filter that
// keeps a different set misses, and every result equals a fresh store's.
func TestStoreWithGadgetFilter(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	noCond := func(g *gadget.Gadget) bool { return !g.HasCond }
	keepCond := false
	sameSet := func(g *gadget.Gadget) bool { return g.HasCond == keepCond }
	retOnly := func(g *gadget.Gadget) bool { return g.JmpType == gadget.TypeReturn }

	analyze := func(filter func(*gadget.Gadget) bool, store *pipeline.Store) (*Analysis, string) {
		a := Analyze(bin, Config{
			Planner:      planner.Options{MaxPlans: 2, MaxNodes: 2000},
			GadgetFilter: filter,
			Store:        store,
		})
		return a, a.Pool.Canon() + attackSig(a.FindAll())
	}
	store := pipeline.NewStore()
	cond := 0
	for _, g := range Analyze(bin, Config{SkipSubsume: true, Store: store}).RawPool.Gadgets {
		if g.HasCond {
			cond++
		}
	}
	if cond == 0 {
		t.Fatal("no conditional gadgets: noCond keeps the whole pool")
	}
	for _, c := range []struct {
		name   string
		filter func(*gadget.Gadget) bool
		hit    bool
	}{
		{"first", noCond, false},
		{"repeat", noCond, true},
		{"other closure, same gadgets", sameSet, true},
		{"other gadgets", retOnly, false},
	} {
		a, got := analyze(c.filter, store)
		if _, fresh := analyze(c.filter, nil); got != fresh {
			t.Errorf("%s: result differs from a fresh store's", c.name)
		}
		for _, tm := range a.Timings[1:] { // extraction hits after the first run
			if tm.Cached != c.hit {
				t.Errorf("%s: stage %s cached=%v, want %v", c.name, tm.Name, tm.Cached, c.hit)
			}
		}
	}
}
