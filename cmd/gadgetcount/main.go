// Command gadgetcount reports gadget statistics for a binary or a built-in
// benchmark across obfuscation configurations — the data behind the paper's
// Fig. 1 and Table I.
//
// Usage:
//
//	gadgetcount -bin prog.sbf
//	gadgetcount -prog crc [-isa rv64c]   # original vs LLVM-Obf vs Tigress
//	gadgetcount -server unix:/tmp/gpd.sock -prog crc
//
// Each scan is one count request (serve.Request). Locally it runs with
// serve.Run on a private store, which -cachedir (or GP_CACHE_DIR) backs
// with a disk tier that persists across invocations; with -server (or
// GPD_ADDR) it is served by a running gpd, whose warm store is shared by
// every client. Either way each configuration prints a label line and the
// result's canonical rendering (serve.Result.Canon), so the two modes print
// the same bytes. -isa picks the backend of source builds; a binary is
// scanned under its own ISA tag.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gadgetcount:", err)
		os.Exit(1)
	}
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gadgetcount", flag.ExitOnError)
	binPath := fs.String("bin", "", "SBF binary")
	progName := fs.String("prog", "", "built-in benchmark to compare across obfuscations")
	seed := fs.Int64("seed", 42, "obfuscation seed")
	isaFlag := cliutil.ISAFlag(fs)
	server := cliutil.ServerFlag(fs)
	sf := cliutil.RegisterStore(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	type labeled struct {
		label string
		req   serve.Request
	}
	var reqs []labeled
	switch {
	case *binPath != "":
		data, err := os.ReadFile(*binPath)
		if err != nil {
			return err
		}
		// A non-empty -isa is rejected: the binary carries its own tag.
		reqs = append(reqs, labeled{*binPath, serve.Request{
			Op: serve.OpCount, Binary: data, ISA: *isaFlag,
		}})
	case *progName != "":
		for _, cfg := range obfConfigs {
			reqs = append(reqs, labeled{*progName + "/" + cfg.name, serve.Request{
				Op: serve.OpCount, Program: *progName, Obf: cfg.spec, Seed: *seed, ISA: *isaFlag,
			}})
		}
	default:
		return fmt.Errorf("need -bin or -prog")
	}

	exec, _, err := sf.Runner(*server)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		res, err := exec(context.Background(), r.req, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s:\n%s", r.label, res.Canon())
	}
	return nil
}
