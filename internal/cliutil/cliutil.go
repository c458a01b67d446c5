// Package cliutil is the shared command-line wiring for the cmd/* mains:
// every CLI opens the artifact store the same way (-cachedir/$GP_CACHE_DIR
// for the persistent tier, which -cachedir "" turns off), names a build
// backend the same way (-isa/$GP_ISA) and addresses the analysis service
// the same way (-server/$GPD_ADDR). Factoring it here keeps the binaries
// from drifting — the flag set had already diverged once before this
// package existed.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// StoreFlags is the store-configuration flag group. Register it with
// RegisterStore, then Open the store after flag.Parse.
type StoreFlags struct {
	CacheDir *string
	Parallel *int
}

// RegisterStore registers -cachedir (defaulting to $GP_CACHE_DIR) on fs.
func RegisterStore(fs *flag.FlagSet) *StoreFlags {
	f := &StoreFlags{}
	f.CacheDir = fs.String("cachedir", os.Getenv("GP_CACHE_DIR"),
		"persistent artifact cache directory (default $GP_CACHE_DIR; empty disables the disk tier)")
	return f
}

// WithParallel additionally registers -parallel and returns f for
// chaining.
func (f *StoreFlags) WithParallel(fs *flag.FlagSet) *StoreFlags {
	f.Parallel = fs.Int("parallel", 0,
		"analysis workers (0 = all cores, 1 = serial; results are identical)")
	return f
}

// Open builds the store the flags describe: a memory store, disk-backed
// when -cachedir names a directory.
func (f *StoreFlags) Open() (*pipeline.Store, error) {
	store := pipeline.NewStore()
	if *f.CacheDir != "" {
		disk, err := pipeline.OpenDisk(*f.CacheDir, pipeline.DiskOptions{})
		if err != nil {
			return nil, err
		}
		store.WithDisk(disk)
	}
	return store, nil
}

// Parallelism returns the -parallel value (0 when the flag was not
// registered).
func (f *StoreFlags) Parallelism() int {
	if f.Parallel == nil {
		return 0
	}
	return *f.Parallel
}

// RunFunc executes one service request, streaming stage progress to the
// (optional) callback.
type RunFunc func(ctx context.Context, req serve.Request, progress serve.Progress) (*serve.Result, error)

// Runner returns the executor every client CLI submits its requests to:
// the gpd at server when it is non-empty, otherwise serve.Run on the
// private store the flags open, which it also returns (nil when served).
// Either way a request's Result.Canon is the same bytes.
func (f *StoreFlags) Runner(server string) (RunFunc, *pipeline.Store, error) {
	if server != "" {
		client, err := serve.Dial(server)
		if err != nil {
			return nil, nil, err
		}
		return client.Run, nil, nil
	}
	store, err := f.Open()
	if err != nil {
		return nil, nil, err
	}
	return func(ctx context.Context, req serve.Request, progress serve.Progress) (*serve.Result, error) {
		return serve.Run(ctx, store, f.Parallelism(), req, progress)
	}, store, nil
}

// ISAFlag registers the -isa backend flag, defaulting to $GP_ISA: the
// instruction-set backend builds target and analyses scan under. Resolve
// the parsed value with ResolveISA.
func ISAFlag(fs *flag.FlagSet) *string {
	return fs.String("isa", os.Getenv("GP_ISA"),
		"instruction-set backend: x64 (default), rv64, or rv64c (default $GP_ISA)")
}

// ResolveISA validates a parsed -isa value and returns the canonical
// backend name ("" stays "", meaning the default x64 everywhere).
func ResolveISA(name string) (string, error) {
	if name == "" {
		return "", nil
	}
	if _, ok := isa.ByName(name); !ok {
		return "", fmt.Errorf("unknown isa %q (want x64, rv64, or rv64c)", name)
	}
	return isa.CanonicalISA(name), nil
}

// ServerFlag registers the -server client flag, defaulting to $GPD_ADDR:
// when non-empty, the CLI submits its work to a running gpd instead of
// analyzing locally.
func ServerFlag(fs *flag.FlagSet) *string {
	return fs.String("server", os.Getenv("GPD_ADDR"),
		"gpd analysis server address (default $GPD_ADDR; unix:/path.sock or host:port); when set, requests are served by the shared daemon")
}
