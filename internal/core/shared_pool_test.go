package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// sharedPoolCfg is a planner budget large enough that a SkipSubsume search
// reaches the per-gadget caches for most of the raw pool.
func sharedPoolCfg(store *pipeline.Store, skip bool) Config {
	return Config{
		Planner:     planner.Options{MaxPlans: 50, MaxNodes: 5000, Parallelism: 1},
		Parallelism: 1,
		SkipSubsume: skip,
		Store:       store,
	}
}

// findAllSig renders a FindAll result as each goal's StatsLine and the
// SHA-256 of every payload, in goal order.
func findAllSig(a *Analysis) string {
	attacks := a.FindAll()
	var sb strings.Builder
	for _, goal := range planner.GoalsForISA(a.Pool.ISA) {
		atk := attacks[goal.Name]
		fmt.Fprintf(&sb, "%s: %s\n", goal.Name, atk.Search.StatsLine())
		for _, pl := range atk.Payloads {
			fmt.Fprintf(&sb, "  %x\n", sha256.Sum256(pl.Bytes))
		}
	}
	return sb.String()
}

// TestSkipSubsumeUnaffectedBySharedStore pins that each pool is a
// function of its own inputs: a SkipSubsume analysis plans over the raw
// pool the store shares with the full analysis of the same binary, so it
// must find the same payloads whether or not that full analysis (which
// minimizes the shared pool) ran first. One pair also runs concurrently,
// so the race detector sees any write to a shared gadget.
func TestSkipSubsumeUnaffectedBySharedStore(t *testing.T) {
	crc, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	for _, obf := range []struct {
		name   string
		passes []obfuscate.Pass
	}{
		{"plain", nil},
		{"llvm", obfuscate.LLVMObf()},
		{"tigress", obfuscate.Tigress()},
	} {
		bin, err := benchprog.BuildISA(crc, obf.passes, 42, "")
		if err != nil {
			t.Fatal(err)
		}
		want := findAllSig(Analyze(bin, sharedPoolCfg(pipeline.NewStore(), true)))

		shared := pipeline.NewStore()
		Analyze(bin, sharedPoolCfg(shared, false))
		if got := findAllSig(Analyze(bin, sharedPoolCfg(shared, true))); got != want {
			t.Errorf("crc/%s: SkipSubsume after a full analysis on one store:\n%s\nwant (fresh store):\n%s",
				obf.name, got, want)
		}
		if obf.name == "llvm" {
			if got := concurrentSkipSig(bin); got != want {
				t.Errorf("crc/%s: SkipSubsume concurrent with a full analysis:\n%s\nwant:\n%s",
					obf.name, got, want)
			}
		}
	}
}

// concurrentSkipSig runs a full analysis and a SkipSubsume FindAll of bin
// at the same time on one store and returns the SkipSubsume signature.
func concurrentSkipSig(bin *sbf.Binary) string {
	store := pipeline.NewStore()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Analyze(bin, sharedPoolCfg(store, false))
	}()
	sig := findAllSig(Analyze(bin, sharedPoolCfg(store, true)))
	wg.Wait()
	return sig
}
