package cliutil

import (
	"flag"
	"testing"
)

func TestResolveISA(t *testing.T) {
	for in, want := range map[string]string{"": "", "x64": "x64", "rv64": "rv64", "rv64c": "rv64c"} {
		got, err := ResolveISA(in)
		if err != nil || got != want {
			t.Errorf("ResolveISA(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if got, err := ResolveISA("mips"); err == nil {
		t.Errorf("ResolveISA(mips) = %q, want an error", got)
	}
}

// parseStore registers the store flags on a fresh flag set and parses args.
func parseStore(t *testing.T, parallel bool, args ...string) *StoreFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterStore(fs)
	if parallel {
		f.WithParallel(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpenStore(t *testing.T) {
	store, err := parseStore(t, false, "-cachedir", t.TempDir()).Open()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil || store.Disk() == nil {
		t.Error("-cachedir DIR: want a disk-backed store")
	}
	store, err = parseStore(t, false, "-cachedir=").Open()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil || store.Disk() != nil {
		t.Error(`-cachedir "": want a memory-only store`)
	}
}

func TestParallelism(t *testing.T) {
	if got := parseStore(t, false).Parallelism(); got != 0 {
		t.Errorf("without -parallel: %d, want 0", got)
	}
	if got := parseStore(t, true, "-parallel", "3").Parallelism(); got != 3 {
		t.Errorf("-parallel 3: %d, want 3", got)
	}
}
