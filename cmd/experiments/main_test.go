package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the recorded paper records from the current run")

// record runs experiments -run all with the disk tier off plus extra
// arguments and returns its output.
func record(t *testing.T, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-run", "all", "-cachedir", ""}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("experiments %v: %v", args, err)
	}
	return out.String()
}

// compareRecord checks a masked record against the file at path, which
// -update first rewrites with content.
func compareRecord(t *testing.T, path, got, content string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != maskRecord(string(want)) {
		t.Errorf("record differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestQuickRecordGolden pins the quick paper record: every table and
// figure `experiments -quick -run all` prints, with only the measured
// columns masked. A change that moves a paper number fails it. The same
// output must come out serially and at the default worker count.
func TestQuickRecordGolden(t *testing.T) {
	got := maskRecord(record(t, "-quick"))
	if serial := maskRecord(record(t, "-quick", "-parallel", "1")); serial != got {
		t.Errorf("-parallel 1 output differs from the default\ndefault:\n%s\nserial:\n%s", got, serial)
	}
	compareRecord(t, filepath.Join("testdata", "quick.golden"), got, got)
}

// TestFullRecordGolden pins the full paper record that EXPERIMENTS.md
// quotes: `experiments -run all` must print experiments_full.txt at the
// repository root, measured columns masked on both sides. -update rewrites
// that file with the unmasked output.
func TestFullRecordGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full record takes about a minute")
	}
	out := record(t)
	compareRecord(t, filepath.Join("..", "..", "experiments_full.txt"), maskRecord(out), out)
}

var (
	decimalCol = regexp.MustCompile(` +[0-9]+\.[0-9]+`)
	millisCol  = regexp.MustCompile(` +[0-9]+ms`)
)

// maskRecord blanks what a run measures rather than computes: Table VII's
// Time and Alloc columns and the subsumption ablation's planning times. It
// also drops the store's hit/miss line, which counts cache traffic, not a
// result.
// A masked field becomes one "*" right-aligned in the field's padded
// width, which the fixed-width columns keep constant from run to run.
func maskRecord(out string) string {
	sections := strings.Split(out, "\n===== ")
	for i, s := range sections {
		switch {
		case strings.HasPrefix(s, "Table VII "):
			sections[i] = mask(decimalCol, s)
		case strings.HasPrefix(s, "Ablation — subsumption"):
			sections[i] = mask(millisCol, s)
		}
	}
	var kept []string
	for _, line := range strings.Split(strings.Join(sections, "\n===== "), "\n") {
		if !strings.HasPrefix(line, "store: ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func mask(re *regexp.Regexp, s string) string {
	return re.ReplaceAllStringFunc(s, func(m string) string {
		return strings.Repeat(" ", len(m)-1) + "*"
	})
}
