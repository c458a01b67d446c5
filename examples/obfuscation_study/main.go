// Obfuscation study: how much attack surface does each obfuscation add?
// Reproduces the shapes of the paper's Fig. 1 (gadget counts) and its
// pool-composition finding: conditional-jump and indirect-jump gadgets are
// essentially absent from plain builds and abundant after obfuscation.
package main

import (
	"fmt"
	"log"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

func main() {
	opts := experiments.Options{
		Programs: benchprog.Benchmarks()[:4],
		Planner:  planner.Options{MaxPlans: 8, MaxNodes: 4000},
	}

	fmt.Println("== Fig. 1: gadget counts per build ==")
	rows, err := experiments.Fig1(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderFig1(rows))

	fmt.Println("\n== pool composition: gadget classes per build ==")
	comp, err := experiments.PoolComposition(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderPoolComposition(comp))

	fmt.Println("\n== per-pass gadget counts (Fig. 5 axis) ==")
	p := benchprog.Benchmarks()[0]
	plain, err := benchprog.BuildISA(p, nil, 42, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %8d gadgets (%6d bytes)\n", "none",
		gadget.TotalCount(gadget.CountISA(plain, 10, isa.X64)), plain.CodeSize())
	for _, name := range obfuscate.AllPassNames() {
		pass, err := obfuscate.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		bin, err := benchprog.BuildISA(p, []obfuscate.Pass{pass}, 42, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %8d gadgets (%6d bytes)\n", name,
			gadget.TotalCount(gadget.CountISA(bin, 10, isa.X64)), bin.CodeSize())
	}
}
