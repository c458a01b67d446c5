// Command gpc compiles MiniC programs to SBF executables, optionally
// applying obfuscation passes — the repository's counterpart of running
// gcc/Obfuscator-LLVM/Tigress in the paper's pipeline.
//
// Usage:
//
//	gpc -src prog.c -o prog.sbf [-obf llvm|tigress|sub,bcf,fla,enc,virt] [-seed 42] [-run]
//	gpc -prog crc -o crc.sbf -obf tigress -run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpc:", err)
		os.Exit(1)
	}
}

func run() error {
	srcPath := flag.String("src", "", "MiniC source file")
	progName := flag.String("prog", "", "built-in benchmark program name (see -list)")
	out := flag.String("o", "", "output SBF path")
	obfSpec := flag.String("obf", "", "obfuscation: llvm, tigress, or comma-separated passes (sub,bcf,fla,enc,virt)")
	seed := flag.Int64("seed", 42, "obfuscation seed")
	execute := flag.Bool("run", false, "run the binary in the emulator after building")
	selfmod := flag.Int("selfmod", 0, "apply self-modification with this XOR key (1-255; x64 builds only)")
	list := flag.Bool("list", false, "list built-in benchmark programs")
	isaFlag := cliutil.ISAFlag(flag.CommandLine)
	sf := cliutil.RegisterStore(flag.CommandLine)
	flag.Parse()

	isaName, err := cliutil.ResolveISA(*isaFlag)
	if err != nil {
		return err
	}

	if *list {
		for _, p := range benchprog.All() {
			fmt.Printf("%-14s %s\n", p.Name, p.Description)
		}
		return nil
	}

	prog := benchprog.Program{Name: "cli"}
	switch {
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		prog.Name, prog.Source = *srcPath, string(data)
	case *progName != "":
		p, ok := benchprog.ByName(*progName)
		if !ok {
			return fmt.Errorf("unknown program %q (try -list)", *progName)
		}
		prog = p
	default:
		return fmt.Errorf("need -src or -prog")
	}

	passes, err := obfuscate.ParseSpec(*obfSpec)
	if err != nil {
		return err
	}
	if *selfmod < 0 || *selfmod > 255 {
		return fmt.Errorf("-selfmod key %d is outside 1..255", *selfmod)
	}
	if *selfmod != 0 && isaName != "" && isaName != "x64" {
		return fmt.Errorf("-selfmod is an x64-only transform (isa %q)", isaName)
	}

	// Build through the same staged pipeline the experiments use. A CLI
	// invocation is a one-shot in-memory store, but with -cachedir (or
	// GP_CACHE_DIR) the persistent tier carries builds across invocations.
	store, err := sf.Open()
	if err != nil {
		return err
	}
	bin, _, err := pipeline.BuildISACtx(context.Background(), store, prog, passes, *seed, isaName)
	if err != nil {
		return err
	}
	if *selfmod != 0 {
		bin, _, err = pipeline.SelfModifyCtx(context.Background(), store, bin, byte(*selfmod))
		if err != nil {
			return err
		}
	}
	fmt.Printf("built: text=%d bytes, entry=%#x, %d symbols\n",
		bin.CodeSize(), bin.Entry, len(bin.Symbols))

	if *out != "" {
		if err := os.WriteFile(*out, bin.Marshal(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *execute {
		res, err := codegen.Run(bin, nil, 0)
		if err != nil {
			return err
		}
		fmt.Printf("--- stdout ---\n%s--- exit %d (%d steps) ---\n",
			res.Stdout, res.ExitCode, res.Steps)
	}
	return nil
}
