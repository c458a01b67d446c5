package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// Every cell is built with the same obfuscation seed and analyzed with the
// same node-bounded planner budget, so a cell's result never depends on
// wall-clock time or on -seed. -seed only orders the requests: across
// obfuscation seeds 1-10 the netperf pass's geometric-mean latency spreads
// by 11% and its slowest cell by 30%, which would swamp any regression
// bound.
const (
	obfSeed     = 42
	parallelism = 2 // analysis workers per request: the machine's core count
	maxPlans    = 8
	maxNodes    = 6000
)

// The two instruction sets of the paper's case-study matrix: x86-64 and
// RISC-V with the compressed extension.
var isas = []string{"x64", "rv64c"}

// cell is one distinct request of a workload's input set. ID names it in
// result rows and in the golden file.
type cell struct {
	ID  string
	Req serve.Request
}

func obfLabel(spec string) string {
	if spec == "" {
		return "original"
	}
	return spec
}

func planCell(program, obf, isaName string) cell {
	return cell{
		ID: fmt.Sprintf("plan/%s/%s/%s", program, obfLabel(obf), isaName),
		Req: serve.Request{Op: serve.OpPlan, Program: program, Obf: obf, Seed: obfSeed,
			ISA: isaName, MaxPlans: maxPlans, MaxNodes: maxNodes},
	}
}

// countCell counts gadgets in p. Built-in programs go by name, generated
// ones carry their source inline, as a client outside the corpus would.
func countCell(p benchprog.Program, builtin bool, obf, isaName string) cell {
	req := serve.Request{Op: serve.OpCount, Obf: obf, Seed: obfSeed, ISA: isaName}
	if builtin {
		req.Program = p.Name
	} else {
		req.Source, req.Name = p.Source, p.Name
	}
	return cell{ID: fmt.Sprintf("count/%s/%s/%s", p.Name, obfLabel(obf), isaName), Req: req}
}

// netperfCells is the paper's case-study matrix: netperf-sim under no
// obfuscation, the Obfuscator-LLVM and Tigress presets, and virtualization
// alone, on both instruction sets.
func netperfCells() []cell {
	var out []cell
	for _, isaName := range isas {
		for _, obf := range []string{"", "llvm", "tigress", "virt"} {
			out = append(out, planCell("netperf", obf, isaName))
		}
	}
	return out
}

// corpusCells counts gadgets in n generated programs under three
// obfuscation settings on both instruction sets.
func corpusCells(n int) []cell {
	var out []cell
	for _, p := range benchprog.GeneratedCorpus(obfSeed, n) {
		for _, isaName := range isas {
			for _, obf := range []string{"", "llvm", "tigress"} {
				out = append(out, countCell(p, false, obf, isaName))
			}
		}
	}
	return out
}

// warmSetCells is what served-warm loads into gpd: the netperf matrix plus
// x64 gadget counts of the 12 Banescu programs, plain and Obfuscator-LLVM.
func warmSetCells() []cell {
	out := netperfCells()
	for _, p := range benchprog.Benchmarks() {
		for _, obf := range []string{"", "llvm"} {
			out = append(out, countCell(p, true, obf, "x64"))
		}
	}
	return out
}

// outcome is the part of a result the golden digests pin: the request key,
// the code size, count rows, raw and minimized pool sizes, and per goal the
// plan count and payload hashes. Work counters (solver tiers, search
// statistics) are left out: they vary with scheduling at parallelism 2.
type outcome struct {
	Key       string
	Op        string
	TextBytes int
	Counts    []serve.CountRow
	RawPool   int
	Pool      int
	Goals     []goalOutcome
}

type goalOutcome struct {
	Goal     string
	Plans    int
	Payloads []string // SHA-256 of each payload, in result order
}

func outcomeOf(res *serve.Result) outcome {
	o := outcome{Key: res.Key, Op: res.Op, TextBytes: res.TextBytes, Counts: res.Counts,
		RawPool: res.RawPool, Pool: res.Pool}
	for _, g := range res.Goals {
		gr := goalOutcome{Goal: g.Goal, Plans: g.Plans}
		for _, p := range g.Payloads {
			gr.Payloads = append(gr.Payloads, p.SHA256)
		}
		o.Goals = append(o.Goals, gr)
	}
	return o
}

// digest hashes the outcome's canonical rendering.
func (o outcome) digest() string {
	var sb strings.Builder
	sb.WriteString(o.Key)
	sb.WriteString("\nop " + o.Op + " text=" + strconv.Itoa(o.TextBytes) + "\n")
	for _, c := range o.Counts {
		sb.WriteString(c.Class + "=" + strconv.Itoa(c.Count) + "\n")
	}
	sb.WriteString("pool raw=" + strconv.Itoa(o.RawPool) + " min=" + strconv.Itoa(o.Pool) + "\n")
	for _, g := range o.Goals {
		sb.WriteString("goal " + g.Goal + " plans=" + strconv.Itoa(g.Plans) + "\n")
		for _, p := range g.Payloads {
			sb.WriteString("  " + p + "\n")
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// goldenPath is where go test -update writes the digests.
const goldenPath = "testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens maps cell IDs to the outcome digests of a reference run.
func goldens() (map[string]string, error) {
	g := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", goldenPath, err)
	}
	return g, nil
}
