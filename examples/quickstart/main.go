// Quickstart: compile a small MiniC program, obfuscate it the way the
// study does, run Gadget-Planner's four-stage pipeline on the binary, and
// verify a generated execve payload in the emulator.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

const victim = `
int secret(int x) {
    int acc = 0;
    int i;
    for (i = 0; i < x; i++) acc = acc * 31 + i;
    return acc;
}

int main() {
    print_int(secret(20));
    print_char('\n');
    return 0;
}
`

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. Compile with Obfuscator-LLVM-style passes (substitution, bogus
	//    control flow, flattening).
	bin, err := codegen.BuildProgram(victim, func(m *mir.Module) error {
		return obfuscate.Apply(m, 7, obfuscate.LLVMObf()...)
	}, codegen.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "obfuscated binary: %d bytes of code\n", bin.CodeSize())

	// Sanity: the obfuscated program still behaves.
	out, err := codegen.Run(bin, nil, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "program output: %s", out.Stdout)

	// 2. Stages 1–2: extract gadgets and minimize the pool.
	analysis := core.Analyze(bin, core.Config{})
	fmt.Fprintf(w, "gadget pool: %d raw -> %d after subsumption (%.2fx)\n",
		analysis.SubsumeStats.Before, analysis.SubsumeStats.After,
		analysis.SubsumeStats.ReductionFactor())

	// 3. Stages 3–4: plan and build execve("/bin/sh") payloads; every
	//    returned payload has already fired in the emulator.
	attack := analysis.FindPayloads(planner.ExecveGoal())
	fmt.Fprintf(w, "verified execve payloads: %d\n", len(attack.Payloads))
	if len(attack.Payloads) == 0 {
		return errors.New("no payloads found")
	}

	pl := attack.Payloads[0]
	fmt.Fprintf(w, "\nfirst chain (%d bytes of payload):\n", len(pl.Bytes))
	for i, g := range pl.Chain {
		fmt.Fprintf(w, "  gadget %d: %s\n", i+1, g)
	}

	// 4. Re-verify explicitly, then show the stack layout.
	if err := payload.Verify(bin, pl, 0); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nemulator re-verification: execve(\"/bin/sh\", 0, 0) fired ✓")
	return nil
}
