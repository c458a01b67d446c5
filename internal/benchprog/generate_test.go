package benchprog

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic pins the generator's core contract: the same
// (seed, class) yields byte-identical source, distinct seeds and classes
// yield distinct programs, and corpus generation is a pure function of
// (baseSeed, n).
func TestGenerateDeterministic(t *testing.T) {
	seen := map[string]string{}
	for seed := int64(0); seed < 8; seed++ {
		for _, c := range SizeClasses() {
			a := Generate(seed, c)
			b := Generate(seed, c)
			if a.Source != b.Source {
				t.Fatalf("%s: same (seed=%d, class=%s) generated different source", a.Name, seed, c.Name)
			}
			if a.Name != b.Name {
				t.Fatalf("name mismatch: %s vs %s", a.Name, b.Name)
			}
			if prev, ok := seen[a.Source]; ok {
				t.Errorf("%s collides with %s: identical source", a.Name, prev)
			}
			seen[a.Source] = a.Name
		}
	}

	c1 := GeneratedCorpus(100, 12)
	c2 := GeneratedCorpus(100, 12)
	if len(c1) != 12 {
		t.Fatalf("corpus size = %d", len(c1))
	}
	for i := range c1 {
		if c1[i].Source != c2[i].Source || c1[i].Name != c2[i].Name {
			t.Errorf("corpus program %d differs between identical calls", i)
		}
	}
	// A shifted base seed must shift every program.
	c3 := GeneratedCorpus(101, 12)
	if c1[0].Source == c3[0].Source {
		t.Error("different base seeds generated identical programs")
	}
}

// TestGenerateShape sanity-checks the generated mix: every class produces
// programs with its declared number of functions and globals, and the
// statement mix includes branches, loops, and array stores somewhere in a
// small seed range.
func TestGenerateShape(t *testing.T) {
	for _, c := range SizeClasses() {
		var sawIf, sawFor, sawStore bool
		for seed := int64(0); seed < 6; seed++ {
			p := Generate(seed, c)
			for fi := 0; fi < c.Funcs; fi++ {
				if !strings.Contains(p.Source, "int f"+itoa(fi)+"(int a, int b)") {
					t.Errorf("%s: missing f%d", p.Name, fi)
				}
			}
			for gi := 0; gi < c.Globals; gi++ {
				if !strings.Contains(p.Source, "int g"+itoa(gi)+"[") {
					t.Errorf("%s: missing g%d", p.Name, gi)
				}
			}
			sawIf = sawIf || strings.Contains(p.Source, "if (")
			sawFor = sawFor || strings.Contains(p.Source, "for (i1")
			sawStore = sawStore || strings.Contains(p.Source, "] = ")
		}
		if !sawIf || !sawFor || !sawStore {
			t.Errorf("class %s: mix missing if=%v for=%v store=%v", c.Name, sawIf, sawFor, sawStore)
		}
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// TestGeneratedValidateSample enforces the safety contract on a sample:
// generated programs build and run to the plain build's exact output under
// every individual pass and both composite configurations. The full
// corpus's LLVM-Obf and Tigress builds are checked against the plain output
// per program by experiments.Fig1Corpus; this keeps the unit suite fast.
func TestGeneratedValidateSample(t *testing.T) {
	if testing.Short() {
		t.Skip("obfuscated builds are slow")
	}
	for _, c := range SizeClasses() {
		p := Generate(7, c)
		if err := ValidateGenerated(p, 42); err != nil {
			t.Error(err)
		}
	}
}

// TestByNameIndexed pins the indexed ByName against the corpus: every
// program resolves to itself, unknown names miss, and generated programs
// (not part of the hand-written corpus) do not alias corpus names.
func TestByNameIndexed(t *testing.T) {
	for _, p := range All() {
		got, ok := ByName(p.Name)
		if !ok || got.Name != p.Name || got.Source != p.Source {
			t.Errorf("ByName(%q) mismatch", p.Name)
		}
	}
	if _, ok := ByName("no-such-program"); ok {
		t.Error("ByName invented a program")
	}
	if _, ok := ByName(Generate(1, SizeClasses()[0]).Name); ok {
		t.Error("generated program aliases the hand-written corpus")
	}
}
