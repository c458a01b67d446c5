// Command gp runs the Gadget-Planner pipeline on an SBF binary: gadget
// extraction, subsumption testing, partial-order planning, and payload
// construction with emulator verification.
//
// Usage:
//
//	gp -bin prog.sbf [-goal execve|mprotect|mmap|all] [-max 8] [-dump] [-v]
//	gp -server unix:/tmp/gpd.sock -bin prog.sbf   # served by a shared gpd
//
// With -server (or GPD_ADDR) the binary is submitted to a running gpd
// analysis service instead of being analyzed in-process: stage progress
// streams back as it happens, and the result is byte-identical to the
// local run — the daemon just keeps the artifact store warm across
// clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/cliutil"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gp:", err)
		os.Exit(1)
	}
}

func run() error {
	binPath := flag.String("bin", "", "SBF binary to analyze")
	goalName := flag.String("goal", "all", "attack goal: execve, mprotect, mmap, or all")
	maxPlans := flag.Int("max", 8, "maximum payloads per goal")
	dump := flag.Bool("dump", false, "dump payload bytes")
	verbose := flag.Bool("v", false, "print chains")
	timeout := flag.Duration("timeout", 30*time.Second, "planning timeout per goal")
	isaFlag := cliutil.ISAFlag(flag.CommandLine)
	server := cliutil.ServerFlag(flag.CommandLine)
	sf := cliutil.RegisterStore(flag.CommandLine).WithParallel(flag.CommandLine)
	flag.Parse()

	isaName, err := cliutil.ResolveISA(*isaFlag)
	if err != nil {
		return err
	}

	if *binPath == "" {
		return fmt.Errorf("need -bin")
	}
	data, err := os.ReadFile(*binPath)
	if err != nil {
		return err
	}

	if *server != "" {
		if isaName != "" {
			return fmt.Errorf("-isa is a local scan override; served binaries are analyzed under their own ISA tag")
		}
		return runServed(*server, data, *binPath, *goalName, *maxPlans, *timeout, *dump, *verbose)
	}

	bin, err := sbf.Unmarshal(data)
	if err != nil {
		return err
	}
	store, err := sf.Open()
	if err != nil {
		return err
	}
	cfg := core.Config{
		Planner:     planner.Options{MaxPlans: *maxPlans, Timeout: *timeout},
		Parallelism: sf.Parallelism(),
		Store:       store,
	}
	// -isa pins the scan backend; the default is the binary's own ISA tag.
	// The interesting override is scanning an rv64 binary under rv64c —
	// same bytes, compressed decoding on.
	cfg.Extract.ISA = isaName
	analysis := core.Analyze(bin, cfg)
	fmt.Printf("extraction: %d raw candidates, %d supported\n",
		analysis.RawPool.Stats.RawCandidates, analysis.RawPool.Size())
	fmt.Printf("subsumption: %s\n", analysis.SubsumeStats)

	allGoals := planner.GoalsForISA(analysis.Pool.ISA)
	goals := allGoals
	if *goalName != "all" {
		goals = nil
		for _, g := range allGoals {
			if g.Name == *goalName {
				goals = []planner.Goal{g}
			}
		}
		if goals == nil {
			return fmt.Errorf("unknown goal %q", *goalName)
		}
	}

	for _, goal := range goals {
		atk := analysis.FindPayloads(goal)
		fmt.Printf("\n== %s: %d verified payloads ==\n", goal.Name, len(atk.Payloads))
		fmt.Printf("search: %s\n", atk.Search.StatsLine())
		for i, pl := range atk.Payloads {
			fmt.Printf("payload %d: %d bytes, %d gadgets\n", i+1, len(pl.Bytes), len(pl.Chain))
			if *verbose {
				for _, g := range pl.Chain {
					fmt.Printf("    %s\n", g.StringOn(analysis.Pool.Backend()))
				}
			}
			if *dump {
				fmt.Print(pl.Dump())
			}
		}
	}

	fmt.Println("\nstage timings:")
	for _, t := range analysis.Timings {
		mark := ""
		if t.Cached {
			mark = "  (cached)"
		}
		fmt.Printf("  %-20s %10s %8.1f MB allocated%s\n",
			t.Name, t.Duration.Round(time.Millisecond), float64(t.AllocBytes)/(1<<20), mark)
	}
	fmt.Println(store.StatsLine())
	fmt.Println(pipeline.WallLine())
	return nil
}

// runServed submits the binary to a gpd instance and renders the streamed
// response. The body it prints is the result's canonical rendering — the
// same bytes a local run of this request produces.
func runServed(addr string, data []byte, name, goal string, maxPlans int, timeout time.Duration, dump, verbose bool) error {
	client, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	req := serve.Request{
		Op:        serve.OpPlan,
		Binary:    data,
		Name:      name,
		Goal:      goal,
		MaxPlans:  maxPlans,
		TimeoutMS: timeout.Milliseconds(),
	}
	progress := func(ev serve.StageEvent) {
		if !verbose {
			return
		}
		mark := ""
		if ev.Cached {
			mark = "  (cached)"
		}
		fmt.Fprintf(os.Stderr, "  %-20s %8.1f ms%s\n", ev.Stage, ev.Millis, mark)
	}
	res, err := client.Run(context.Background(), req, progress)
	if err != nil {
		return err
	}
	fmt.Printf("server %s\n", addr)
	fmt.Print(res.Canon())
	if dump {
		for _, g := range res.Goals {
			for _, p := range g.Payloads {
				fmt.Print(dumpPayload(g.Goal, p))
			}
		}
	}
	return nil
}

// dumpPayload renders a served payload in payload.Dump's format.
func dumpPayload(goal string, p serve.PayloadResult) string {
	out := fmt.Sprintf("payload @ %#x, %d bytes, goal %s\n", p.Base, len(p.Data), goal)
	for off := 0; off+8 <= len(p.Data); off += 8 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(p.Data[off+i])
		}
		out += fmt.Sprintf("  +%04x: %016x\n", off, v)
	}
	return out
}
