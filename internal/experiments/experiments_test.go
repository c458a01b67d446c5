package experiments

import (
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// quickOpts keeps experiment smoke tests fast.
func quickOpts() Options {
	return Options{
		Programs: benchprog.Benchmarks()[:2],
		Planner:  planner.Options{MaxPlans: 6, MaxNodes: 3000},
	}
}

func TestFig1Shape(t *testing.T) {
	rows, err := Fig1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: obfuscation increases gadget counts.
		if r.LLVMObf <= r.Original {
			t.Errorf("%s: LLVM-Obf %d <= original %d", r.Program, r.LLVMObf, r.Original)
		}
		if r.Tigress <= r.LLVMObf {
			t.Errorf("%s: Tigress %d <= LLVM-Obf %d", r.Program, r.Tigress, r.LLVMObf)
		}
	}
	if RenderFig1(rows) == "" {
		t.Error("empty render")
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string]Table1Row{}
	for _, r := range rows {
		byType[r.Type.String()] = r
	}
	// Every class must grow; indirect classes exist only after obfuscation
	// (virtualization dispatchers), matching the paper's UIJ/CIJ story.
	for _, cls := range []string{"Return", "UDJ"} {
		if byType[cls].IncreaseRate <= 0 {
			t.Errorf("%s increase rate = %.1f", cls, byType[cls].IncreaseRate)
		}
	}
	if byType["UIJ"].Obfuscated <= byType["UIJ"].Original {
		t.Errorf("UIJ did not grow: %+v", byType["UIJ"])
	}
	if RenderTable1(rows) == "" {
		t.Error("empty render")
	}
}

func TestTable4AndTable5Shape(t *testing.T) {
	opts := quickOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	rows, gp, err := Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	find := func(obf, tool string) Table4Row {
		for _, r := range rows {
			if r.Obf == obf && r.Tool == tool {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", obf, tool)
		return Table4Row{}
	}
	for _, obf := range []string{"Original", "LLVM-Obf", "Tigress"} {
		rg := find(obf, "ROPGadget").Total
		ag := find(obf, "Angrop").Total
		sg := find(obf, "SGC").Total
		gpT := find(obf, "Gadget-Planner").Total
		if rg > ag || ag > sg || sg > gpT {
			t.Errorf("%s ordering: RG=%d Angrop=%d SGC=%d GP=%d", obf, rg, ag, sg, gpT)
		}
		if gpT == 0 {
			t.Errorf("%s: Gadget-Planner found nothing", obf)
		}
	}
	// The increased-attack-surface accounting: the original build can never
	// have payloads relying on obfuscation-introduced gadgets.
	if find("Original", "Gadget-Planner").NewTotal != 0 {
		t.Error("original build has 'new' payloads")
	}
	if !strings.Contains(RenderTable4(rows), "(+") {
		t.Error("render lacks newly-introduced annotation")
	}

	// The pool-level attack-surface signal: conditional/indirect/merged
	// gadget classes exist only after obfuscation.
	comp, err := PoolComposition(opts)
	if err != nil {
		t.Fatal(err)
	}
	var orig, llvm PoolCompositionRow
	for _, r := range comp {
		if r.Obf == "Original" {
			orig = r
		}
		if r.Obf == "LLVM-Obf" {
			llvm = r
		}
	}
	if orig.Conditional != 0 || orig.Indirect != 0 {
		t.Errorf("original pool has cond=%d ij=%d", orig.Conditional, orig.Indirect)
	}
	if llvm.Conditional == 0 || llvm.Indirect == 0 {
		t.Errorf("LLVM-Obf pool lacks new classes: %+v", llvm)
	}
	if RenderPoolComposition(comp) == "" {
		t.Error("empty composition render")
	}

	t5 := Table5(gp)
	if len(t5) == 0 || t5[0].Stats.Chains == 0 {
		t.Errorf("table5 = %+v", t5)
	}
	if RenderTable5(t5) == "" {
		t.Error("empty table5 render")
	}
}

func TestNetperfCaseStudy(t *testing.T) {
	res, err := Netperf(Options{Planner: planner.Options{MaxPlans: 16, MaxNodes: 8000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Payloads < 16 {
		t.Errorf("payloads = %d, want >= 16 (the paper found 16)", res.Payloads)
	}
	if !res.ExploitWorks {
		t.Fatal("end-to-end stdin exploit did not spawn the shell")
	}
	if res.Offset <= 0 || res.StackBase == 0 {
		t.Errorf("geometry: offset=%d base=%#x", res.Offset, res.StackBase)
	}
	if !strings.Contains(RenderNetperf(res), "execve") {
		t.Error("render lacks execve")
	}
}

func TestAblations(t *testing.T) {
	opts := quickOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	sub, err := AblationSubsumption(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0].ReductionFactor <= 1 {
		t.Errorf("subsumption ablation = %+v", sub)
	}
	if RenderAblationSubsumption(sub) == "" {
		t.Error("empty render")
	}

	cls, err := AblationGadgetClasses(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) < 5 {
		t.Fatalf("class rows = %d", len(cls))
	}
	all := cls[0].Payloads
	if all == 0 {
		t.Error("all-classes found nothing")
	}
	// The no-deref pool must be strictly weaker on compiled binaries (the
	// deref mechanism is what unlocks spill-code gadgets).
	for _, r := range cls {
		if r.Config == "no-deref" && r.Payloads >= all {
			t.Errorf("no-deref %d >= all %d", r.Payloads, all)
		}
	}
	if RenderAblationClasses(cls) == "" {
		t.Error("empty render")
	}
}

func TestIsNewGadgetClassifier(t *testing.T) {
	opts := Options{Seed: 42}.withDefaults()
	p := benchprog.Benchmarks()[0]
	origText, err := origTextOf(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	// Every gadget extracted from the original binary must be "old".
	bin, err := opts.build(p, Configs()[0])
	if err != nil {
		t.Fatal(err)
	}
	pool := poolOf(bin)
	news := 0
	for _, g := range pool.Gadgets {
		if IsNewGadget(bin, g, origText) {
			news++
		}
	}
	if news != 0 {
		t.Errorf("%d gadgets of the original classified as new", news)
	}
}

func TestFig5IncludesSelfMod(t *testing.T) {
	opts := quickOpts()
	opts.Programs = benchprog.Benchmarks()[:1]
	rows, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sm, sub Fig5Row
	for _, r := range rows {
		if r.Pass == "selfmod" {
			sm = r
		}
		if r.Pass == "sub" {
			sub = r
		}
	}
	if sm.Pass == "" {
		t.Fatal("selfmod row missing")
	}
	// Self-modification hides the static surface: the encoded image shows
	// only noise gadgets (random-byte decode artifacts), and none of them
	// compose into a payload.
	_ = sub
	if sm.Payloads != 0 {
		t.Errorf("payloads on encoded image = %d", sm.Payloads)
	}
	if RenderFig5(rows) == "" {
		t.Error("empty render")
	}
}
