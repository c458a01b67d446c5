// Command gp runs the Gadget-Planner pipeline on an SBF binary: gadget
// extraction, subsumption testing, partial-order planning, and payload
// construction with emulator verification.
//
// Usage:
//
//	gp -bin prog.sbf [-goal execve|mprotect|mmap|all] [-max 8] [-dump] [-v]
//	gp -server unix:/tmp/gpd.sock -bin prog.sbf   # served by a shared gpd
//
// The binary is analyzed under its own ISA tag as one plan request
// (serve.Request). Locally the request runs with serve.Run on a private
// store; with -server (or GPD_ADDR) it is submitted to a running gpd,
// which keeps the artifact store warm across clients. Either way gp prints
// the result's canonical rendering (serve.Result.Canon), which is
// byte-identical across the two modes, then the stage timings; a local
// run adds the store's stage counters. -v streams each stage to stderr
// as it finishes; -dump prints every payload's bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gp", flag.ExitOnError)
	fs.SetOutput(stderr)
	binPath := fs.String("bin", "", "SBF binary to analyze")
	goalName := fs.String("goal", "all", "attack goal: execve, mprotect, mmap, or all")
	maxPlans := fs.Int("max", 8, "maximum payloads per goal")
	dump := fs.Bool("dump", false, "dump payload bytes")
	verbose := fs.Bool("v", false, "stream stage progress to stderr")
	server := cliutil.ServerFlag(fs)
	sf := cliutil.RegisterStore(fs).WithParallel(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *binPath == "" {
		return fmt.Errorf("need -bin")
	}
	data, err := os.ReadFile(*binPath)
	if err != nil {
		return err
	}
	exec, store, err := sf.Runner(*server)
	if err != nil {
		return err
	}
	var progress serve.Progress
	if *verbose {
		progress = func(ev serve.StageEvent) { fmt.Fprintln(stderr, stageLine(ev)) }
	}
	res, err := exec(context.Background(), serve.Request{
		Op:       serve.OpPlan,
		Binary:   data,
		Goal:     *goalName,
		MaxPlans: *maxPlans,
	}, progress)
	if err != nil {
		return err
	}

	fmt.Fprint(stdout, res.Canon())
	if *dump {
		for _, g := range res.Goals {
			for _, p := range g.Payloads {
				fmt.Fprint(stdout, payload.DumpBytes(p.Base, g.Goal, p.Data))
			}
		}
	}
	fmt.Fprintln(stdout, "\nstage timings:")
	for _, ev := range res.Stages {
		fmt.Fprintln(stdout, stageLine(ev))
	}
	if store != nil {
		fmt.Fprintln(stdout, store.StatsLine())
	}
	return nil
}

// stageLine renders one stage's cost. A cached stage reports the cost of
// its original computation.
func stageLine(ev serve.StageEvent) string {
	mark := ""
	if ev.Cached {
		mark = "  (cached)"
	}
	return fmt.Sprintf("  %-20s %10.1f ms %8.1f MB allocated%s",
		ev.Stage, ev.Millis, float64(ev.AllocBytes)/(1<<20), mark)
}
