package experiments

// ISASurface is the multi-backend attack-surface table: it builds each
// program for every instruction-set backend (x64, rv64, rv64c) and counts
// classic gadgets and the extracted pool on the original and the LLVM-style
// obfuscated build. The rv64c arm scans the same generated code as rv64 at
// stride 2 with compressed decoding enabled, so the paper's C-extension
// claim shows up as the rv64c/rv64 pool ratio.

import (
	"context"
	"fmt"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

// ISARow is one (program, obfuscation, backend) cell.
type ISARow struct {
	Program string
	Passes  string // "" = original
	ISA     string

	CodeBytes int
	// Gadgets is the classic syntactic count (gadget.CountISA total).
	Gadgets int
	// Pool is the extracted semantic pool size under Extract defaults.
	Pool int
}

// isaBackends are the backend arms, default first.
var isaBackends = []string{"x64", "rv64", "rv64c"}

// ISASurface counts every (program, obfuscation, backend) cell.
func ISASurface(opts Options) ([]ISARow, error) {
	opts = opts.withDefaults()
	programs := []string{"crc", "fibonacci"}
	if opts.Quick {
		programs = programs[:1]
	}
	obfArms := []struct {
		label  string
		passes []obfuscate.Pass
	}{
		{"", nil},
		{"llvm-obf", obfuscate.LLVMObf()},
	}

	var rows []ISARow
	for _, name := range programs {
		p, ok := benchprog.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown program %q", name)
		}
		for _, oa := range obfArms {
			for _, isaName := range isaBackends {
				bin, _, err := pipeline.BuildISACtx(
					context.Background(), opts.Store, p, oa.passes, opts.Seed, isaName)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ISARow{
					Program:   name,
					Passes:    oa.label,
					ISA:       isaName,
					CodeBytes: bin.CodeSize(),
					Gadgets:   gadget.TotalCount(pipeline.CountISA(opts.Store, bin, 0, isaName)),
					Pool:      pipeline.Extract(opts.Store, bin, gadget.Options{ISA: isaName}).Size(),
				})
			}
		}
	}
	return rows, nil
}

// RenderISASurface prints the table; each rv64c row carries its pool's ratio
// to the matching aligned rv64 row.
func RenderISASurface(rows []ISARow) string {
	defer pipeline.TrackWall("render")()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-10s %-6s %10s %8s %8s %6s\n",
		"Program", "Passes", "ISA", "Code(B)", "Gadgets", "Pool", "")
	rv := map[string]int{}
	for _, r := range rows {
		if r.ISA == "rv64" {
			rv[r.Program+"|"+r.Passes] = r.Pool
		}
	}
	for _, r := range rows {
		passes := r.Passes
		if passes == "" {
			passes = "(orig)"
		}
		note := ""
		if r.ISA == "rv64c" {
			if base := rv[r.Program+"|"+r.Passes]; base > 0 {
				note = fmt.Sprintf("%.2fx", float64(r.Pool)/float64(base))
			}
		}
		fmt.Fprintf(&sb, "%-12s %-10s %-6s %10d %8d %8d %6s\n",
			r.Program, passes, r.ISA, r.CodeBytes, r.Gadgets, r.Pool, note)
	}
	return sb.String()
}
