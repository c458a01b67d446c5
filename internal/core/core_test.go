package core

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

func analyzeCRC(t *testing.T, passes []obfuscate.Pass) *Analysis {
	t.Helper()
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.BuildISA(p, passes, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(bin, Config{
		Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000},
	})
}

func TestPipelineOnCompiledBinary(t *testing.T) {
	a := analyzeCRC(t, nil)
	if a.RawPool.Size() == 0 || a.Pool.Size() == 0 {
		t.Fatalf("empty pools: raw=%d min=%d", a.RawPool.Size(), a.Pool.Size())
	}
	if a.SubsumeStats.ReductionFactor() <= 1 {
		t.Errorf("no subsumption reduction: %+v", a.SubsumeStats)
	}
	if len(a.Timings) < 2 {
		t.Errorf("timings = %v", a.Timings)
	}

	atk := a.FindPayloads(planner.ExecveGoal())
	if len(atk.Payloads) == 0 {
		t.Fatalf("no execve payloads on plain binary (expanded %d)", atk.Search.Expanded)
	}
	// Every returned payload re-verifies independently.
	for _, pl := range atk.Payloads {
		if err := payload.Verify(a.Binary, pl, 0); err != nil {
			t.Errorf("payload does not re-verify: %v", err)
		}
	}
}

func TestPipelineOnObfuscatedBinary(t *testing.T) {
	a := analyzeCRC(t, obfuscate.LLVMObf())
	attacks := a.FindAll()
	if TotalPayloads(attacks) == 0 {
		t.Fatal("no payloads on obfuscated binary")
	}
	if len(attacks) != 3 {
		t.Errorf("attacks = %d goals", len(attacks))
	}
	stats := Summarize(attacks["execve"].Plans)
	if stats.Chains == 0 || stats.AvgChainLen <= 0 || stats.AvgGadgetLen <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.String() == "" {
		t.Error("empty stats string")
	}
}

func TestSkipSubsumeAblation(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, nil, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	with := Analyze(bin, Config{})
	without := Analyze(bin, Config{SkipSubsume: true})
	if without.Pool.Size() <= with.Pool.Size() {
		t.Errorf("subsumption did not shrink pool: %d vs %d",
			without.Pool.Size(), with.Pool.Size())
	}
}

func TestGadgetFilter(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, nil, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(bin, Config{
		GadgetFilter: func(g *gadget.Gadget) bool { return g.JmpType == gadget.TypeSyscall },
	})
	for _, g := range a.Pool.Gadgets {
		if g.JmpType != gadget.TypeSyscall {
			t.Fatalf("filter leaked %v", g.JmpType)
		}
	}
	// With only syscall gadgets, no full chain exists.
	atk := a.FindPayloads(planner.ExecveGoal())
	if len(atk.Payloads) != 0 {
		t.Error("payloads without register setters?")
	}
}

// A filtered pool must describe itself: its stats reflect what the filter
// kept, not the unfiltered pool (regression: the stats used to be copied
// verbatim).
func TestGadgetFilterStats(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	filter := func(g *gadget.Gadget) bool { return g.JmpType == gadget.TypeReturn }
	full := Analyze(bin, Config{SkipSubsume: true})
	a := Analyze(bin, Config{SkipSubsume: true, GadgetFilter: filter})

	kept := 0
	for _, g := range full.Pool.Gadgets {
		if filter(g) {
			kept++
		}
	}
	if kept == 0 || kept == full.Pool.Size() {
		t.Fatalf("filter not discriminating: kept %d of %d", kept, full.Pool.Size())
	}
	st := a.Pool.Stats
	if st.Supported != kept {
		t.Errorf("Supported = %d, want %d (pool size)", st.Supported, kept)
	}
	if got := st.ByType[gadget.TypeReturn]; got != kept {
		t.Errorf("ByType[Return] = %d, want %d", got, kept)
	}
	for ty, n := range st.ByType {
		if ty != gadget.TypeReturn && n != 0 {
			t.Errorf("ByType[%v] = %d after return-only filter", ty, n)
		}
	}
	merged := 0
	for _, g := range a.Pool.Gadgets {
		if g.Merged {
			merged++
		}
	}
	if st.MergedGadgets != merged {
		t.Errorf("MergedGadgets = %d, want %d", st.MergedGadgets, merged)
	}
	// Scan-level counters still describe the binary, not the filter.
	if st.ScannedOffsets != full.Pool.Stats.ScannedOffsets ||
		st.RawCandidates != full.Pool.Stats.RawCandidates {
		t.Errorf("scan counters changed: %+v vs %+v", st, full.Pool.Stats)
	}
}

func TestChainStatsComposition(t *testing.T) {
	s := Summarize(nil)
	if s.Chains != 0 {
		t.Errorf("empty summarize = %+v", s)
	}
}
