// Command gadgetcount reports gadget statistics for a binary or a built-in
// benchmark across obfuscation configurations — the data behind the paper's
// Fig. 1 and Table I.
//
// Usage:
//
//	gadgetcount -bin prog.sbf
//	gadgetcount -prog crc            # original vs LLVM-Obf vs Tigress
//	gadgetcount -server unix:/tmp/gpd.sock -prog crc
//
// Builds and scans run through the shared artifact store; with -cachedir
// (or GP_CACHE_DIR) they persist across invocations, like the other CLIs.
// With -server (or GPD_ADDR) the scans are served by a running gpd, whose
// warm store is shared by every client.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gadgetcount:", err)
		os.Exit(1)
	}
}

var classes = []gadget.JmpType{
	gadget.TypeReturn, gadget.TypeUDJ, gadget.TypeUIJ,
	gadget.TypeCDJ, gadget.TypeCIJ, gadget.TypeSyscall,
}

// obfConfigs is the standard comparison: the paper's original vs LLVM-Obf
// vs Tigress arms.
var obfConfigs = []struct {
	name string
	spec string
}{
	{"original", ""},
	{"llvm-obf", "llvm"},
	{"tigress", "tigress"},
}

func run() error {
	binPath := flag.String("bin", "", "SBF binary")
	progName := flag.String("prog", "", "built-in benchmark to compare across obfuscations")
	seed := flag.Int64("seed", 42, "obfuscation seed")
	isaFlag := cliutil.ISAFlag(flag.CommandLine)
	server := cliutil.ServerFlag(flag.CommandLine)
	sf := cliutil.RegisterStore(flag.CommandLine)
	flag.Parse()

	isaName, err := cliutil.ResolveISA(*isaFlag)
	if err != nil {
		return err
	}
	if *server != "" {
		return runServed(*server, *binPath, *progName, *seed, isaName)
	}

	store, err := sf.Open()
	if err != nil {
		return err
	}

	if *binPath != "" {
		data, err := os.ReadFile(*binPath)
		if err != nil {
			return err
		}
		bin, err := sbf.Unmarshal(data)
		if err != nil {
			return err
		}
		if _, err := cliutil.ResolveISA(bin.ISA); err != nil {
			return fmt.Errorf("%s: %w", *binPath, err)
		}
		report(store, *binPath, bin, isaName)
		return nil
	}
	if *progName == "" {
		return fmt.Errorf("need -bin or -prog")
	}
	p, ok := benchprog.ByName(*progName)
	if !ok {
		return fmt.Errorf("unknown program %q", *progName)
	}
	for _, cfg := range obfConfigs {
		passes, err := obfuscate.ParseSpec(cfg.spec)
		if err != nil {
			return err
		}
		bin, _, err := pipeline.BuildISACtx(context.Background(), store, p, passes, *seed, isaName)
		if err != nil {
			return err
		}
		report(store, fmt.Sprintf("%s/%s", *progName, cfg.name), bin, "")
	}
	return nil
}

// report scans bin. A non-empty isaName overrides the scan backend (the
// binary's own ISA tag otherwise) — e.g. scanning an rv64 binary under
// rv64c turns compressed decoding on over the same bytes.
func report(store *pipeline.Store, label string, bin *sbf.Binary, isaName string) {
	if isaName == "" {
		isaName = bin.ISA
	}
	counts := pipeline.CountISA(store, bin, 10, isaName)
	fmt.Printf("%s: text=%d bytes, %d gadgets\n", label, bin.CodeSize(), gadget.TotalCount(counts))
	for _, t := range classes {
		fmt.Printf("  %-8s %7d\n", t, counts[t])
	}
}

// runServed sends the scans to a gpd instance instead of computing locally.
func runServed(addr, binPath, progName string, seed int64, isaName string) error {
	client, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if binPath != "" {
		data, err := os.ReadFile(binPath)
		if err != nil {
			return err
		}
		if isaName != "" {
			return fmt.Errorf("-isa applies to source builds; served binaries are scanned under their own ISA tag")
		}
		res, err := client.Run(ctx, serve.Request{Op: serve.OpCount, Binary: data, Name: binPath}, nil)
		if err != nil {
			return err
		}
		reportServed(binPath, res)
		return nil
	}
	if progName == "" {
		return fmt.Errorf("need -bin or -prog")
	}
	for _, cfg := range obfConfigs {
		res, err := client.Run(ctx, serve.Request{
			Op: serve.OpCount, Program: progName, Obf: cfg.spec, Seed: seed, ISA: isaName,
		}, nil)
		if err != nil {
			return err
		}
		reportServed(fmt.Sprintf("%s/%s", progName, cfg.name), res)
	}
	return nil
}

func reportServed(label string, res *serve.Result) {
	fmt.Printf("%s: text=%d bytes, %d gadgets\n", label, res.TextBytes, res.Gadgets)
	for _, row := range res.Counts {
		fmt.Printf("  %-8s %7d\n", row.Class, row.Count)
	}
}
