package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// TestX64KeysUnchanged pins the default backend's key strings to their
// pre-multi-ISA golden values, and the rv64/rv64c build and count keys to
// theirs. These strings address artifacts in every warm cache already
// written; if one of them drifts, those caches silently go cold — so this
// test fails on any change, even a "harmless" renaming.
func TestX64KeysUnchanged(t *testing.T) {
	source := "int main() { return 42; }"
	passes := []string{"flatten", "opaque"}
	const goldenBuild = "build:4abb9cbfed829004398bd8aba47bd8ce"
	bk := "bin:0123"
	for _, c := range []struct{ isa, build, count string }{
		// The default backend, spelled either way, adds nothing to a key.
		{"", goldenBuild, "bin:0123|count:10"},
		{"x64", goldenBuild, "bin:0123|count:10"},
		{"rv64", goldenBuild + "|isa=rv64", "bin:0123|count:10,isa=rv64"},
		{"rv64c", goldenBuild + "|isa=rv64c", "bin:0123|count:10,isa=rv64c"},
	} {
		if k := BuildKey(source, passes, 7, c.isa); k != c.build {
			t.Errorf("BuildKey(%q) = %q, want %q", c.isa, k, c.build)
		}
		if k := CountKey(bk, c.isa); k != c.count {
			t.Errorf("CountKey(%q) = %q, want %q", c.isa, k, c.count)
		}
	}
	const goldenExtract = "bin:0123|x:insts=40,forks=2,merges=3,stride=1"
	if k := ExtractKey(bk, gadget.Options{}); k != goldenExtract {
		t.Errorf("ExtractKey = %q, want %q", k, goldenExtract)
	}
	if k := ExtractKey(bk, gadget.Options{ISA: "x64"}); k != goldenExtract {
		t.Errorf("ExtractKey(ISA=x64) = %q, want %q", k, goldenExtract)
	}
	if k := MinimizeKey(goldenExtract, subsume.Options{}); k != goldenExtract+"|m:fp=4,conf=4096,triage=true" {
		t.Errorf("MinimizeKey = %q", k)
	}
	if k := SkipSubsumeKey(goldenExtract); k != goldenExtract+"|m:skip" {
		t.Errorf("SkipSubsumeKey = %q", k)
	}
	const goldenPlan = "pool|p:execve|plans=8,nodes=30000,steps=10,cands=8,timeout=30s,batch=16,cache=true|base=0x7fff8000,steps=100000,verify=true"
	if k := PlanKey("pool", "execve", planner.Options{}, 0x7fff8000, 100000); k != goldenPlan {
		t.Errorf("PlanKey = %q, want %q", k, goldenPlan)
	}
}

// TestBackendKeysDistinct checks that two backends never share an artifact:
// the backend identifier joins every stage key as soon as it is not the
// default, at build, count, and extract granularity.
func TestBackendKeysDistinct(t *testing.T) {
	source := "int main() { return 0; }"
	seen := map[string]string{}
	for _, name := range []string{"x64", "rv64", "rv64c"} {
		k := BuildKey(source, nil, 1, name)
		if prev, dup := seen[k]; dup {
			t.Errorf("BuildKey: %s and %s share key %q", prev, name, k)
		}
		seen[k] = name
	}
	if CountKey("bin:0", "rv64") == CountKey("bin:0", "rv64c") {
		t.Error("CountKey: rv64 and rv64c share a key")
	}
	if ExtractKey("bin:0", gadget.Options{ISA: "rv64"}) == ExtractKey("bin:0", gadget.Options{}) {
		t.Error("ExtractKey: rv64 aliases the default backend")
	}
}

// TestX64PoolCanonGolden pins the default backend's extraction output
// byte-for-byte: the canonical rendering of the pool (and hence every
// downstream artifact) must hash to the same value as before the backend
// refactor moved decode/classify behind the isa interface.
func TestX64PoolCanonGolden(t *testing.T) {
	golden := []struct {
		prog   string
		obf    []obfuscate.Pass
		label  string
		sum    string
		gadget int
	}{
		{"crc", nil, "orig", "6dbade3b91616095", 130},
		{"crc", obfuscate.LLVMObf(), "llvm", "5aad628b87bd23e7", 362},
		{"fibonacci", nil, "orig", "cc50cd0f7ade910d", 142},
		{"fibonacci", obfuscate.LLVMObf(), "llvm", "0ee6f663bd7f4e28", 418},
	}
	for _, g := range golden {
		p, ok := benchprog.ByName(g.prog)
		if !ok {
			t.Fatalf("%s benchmark missing", g.prog)
		}
		bin, err := benchprog.BuildISA(p, g.obf, 7, "")
		if err != nil {
			t.Fatal(err)
		}
		pool := gadget.Extract(bin, gadget.Options{})
		if pool.Size() != g.gadget {
			t.Errorf("%s/%s: pool size %d, want %d", g.prog, g.label, pool.Size(), g.gadget)
		}
		sum := sha256.Sum256([]byte(pool.Canon()))
		if got := hex.EncodeToString(sum[:8]); got != g.sum {
			t.Errorf("%s/%s: pool canon hash %s, want %s", g.prog, g.label, got, g.sum)
		}
	}
}

// TestCrossISADeterminism is the per-backend determinism matrix: for every
// backend, extraction through a fresh store renders byte-identically to a
// direct extraction across parallelism 1/2/8.
func TestCrossISADeterminism(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	for _, isaName := range []string{"x64", "rv64", "rv64c"} {
		bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 7, isaName)
		if err != nil {
			t.Fatalf("%s: build: %v", isaName, err)
		}
		ref := gadget.Extract(bin, gadget.Options{ISA: isaName, Parallelism: 1}).Canon()
		for _, par := range []int{1, 2, 8} {
			opts := gadget.Options{ISA: isaName, Parallelism: par}
			if got := extract(t, NewStore(), bin, opts).Canon(); got != ref {
				t.Errorf("%s: pool differs at parallelism=%d", isaName, par)
			}
		}
	}
}
