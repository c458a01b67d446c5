package payload_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// netperfExecve builds the plain x64 netperf victim and returns it with the
// execve payloads the pipeline verified against it.
func netperfExecve(t testing.TB) (*sbf.Binary, []*payload.Payload) {
	t.Helper()
	bin, err := benchprog.BuildISA(benchprog.Netperf(), nil, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(bin, core.Config{Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000}})
	atk := a.FindPayloads(planner.ExecveGoal())
	if len(atk.Payloads) == 0 {
		t.Fatal("no execve payload for netperf")
	}
	return bin, atk.Payloads
}

// TestVerifyBytesPerCall pins what one Verify of a netperf execve payload
// allocates (Go 1.24, amd64): 136 KB when every machine copied every page
// of the binary and zero-filled its 64 KiB stack, 35 464 B once machines
// shared the binary's loaded image and the zero page and copied a page only
// when they wrote it, of which a 256-entry icache was 28 672 B, and 14 984 B
// with the icache starting at 64 entries. The bound fails both the copying
// loader and a 256-entry icache.
func TestVerifyBytesPerCall(t *testing.T) {
	bin, pls := netperfExecve(t)
	pl := pls[0]
	if err := payload.Verify(bin, pl, core.VerifySteps); err != nil {
		t.Fatal(err) // also builds the binary's image outside the measurement
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := payload.Verify(bin, pl, core.VerifySteps); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Verify allocates %d bytes per call", per)
	if per > 20<<10 {
		t.Errorf("Verify allocates %d B per call, want at most 20 KiB", per)
	}
}

// TestVerifyConcurrent verifies one binary's payloads from 8 goroutines at
// once, as FindAll does across goals: machines share the binary's image,
// so under -race this checks that no machine writes a shared page.
func TestVerifyConcurrent(t *testing.T) {
	bin, pls := netperfExecve(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range pls {
				if err := payload.Verify(bin, pls[(w+i)%len(pls)], core.VerifySteps); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}

// BenchmarkVerify measures one Verify of a netperf execve payload: loading
// the machine, mapping the stack, injecting the payload and running it to
// its execve.
func BenchmarkVerify(b *testing.B) {
	bin, pls := netperfExecve(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := payload.Verify(bin, pls[0], core.VerifySteps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcretize measures concretization alone: each iteration runs a
// fresh Concretizer, so its verdict cache starts empty, over the complete
// plans FindPayloads returns for execve on netperf built with the
// Obfuscator-LLVM preset for x64.
func BenchmarkConcretize(b *testing.B) {
	bin, err := benchprog.BuildISA(benchprog.Netperf(), obfuscate.LLVMObf(), 42, "x64")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Planner: planner.Options{MaxPlans: 8, MaxNodes: 6000}}
	a := core.Analyze(bin, cfg)
	goal := planner.ExecveGoal()
	// FindPayloads searches a private clone of the pool, which it does not
	// return, and a plan concretizes only against its own gadgets' builder:
	// repeat the search on a clone kept here.
	pool := gadget.ClonePool(a.Pool)
	conc := payload.NewConcretizer(pool, bin, core.DefaultPayloadBase)
	opts := cfg.Planner
	opts.Validate = func(p *planner.Plan) bool {
		pl, err := conc.Concretize(p, goal)
		return err == nil && payload.Verify(bin, pl, core.VerifySteps) == nil
	}
	plans := planner.Search(pool, goal, opts).Plans
	if want := len(a.FindPayloads(goal).Plans); len(plans) == 0 || len(plans) != want {
		b.Fatalf("search found %d plans, FindPayloads %d", len(plans), want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := payload.NewConcretizer(pool, bin, core.DefaultPayloadBase)
		for _, p := range plans {
			if _, err := c.Concretize(p, goal); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(plans)), "plans")
}
