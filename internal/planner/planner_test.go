package planner

import (
	"reflect"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

func buildPool(src string) (*gadget.Pool, error) {
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		return nil, err
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{
		Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code,
	})
	pool := gadget.Extract(bin, gadget.Options{})
	min, _ := subsume.Minimize(pool, subsume.Options{})
	return min, nil
}

func poolFrom(t *testing.T, src string) *gadget.Pool {
	t.Helper()
	pool, err := buildPool(src)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

const classicGadgets = `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    pop r10
    ret
    syscall
`

func TestSearchFindsExecvePlan(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 1})
	if len(res.Plans) == 0 {
		t.Fatalf("no plans found (expanded %d, generated %d)", res.Expanded, res.Generated)
	}
	p := res.Plans[0]
	if !p.Complete() {
		t.Fatal("returned plan incomplete")
	}
	chain := p.Chain()
	if len(chain) < 5 {
		t.Errorf("chain too short: %v", p)
	}
	// The last gadget must be the syscall.
	if chain[len(chain)-1].JmpType != gadget.TypeSyscall {
		t.Errorf("chain does not end in syscall: %v", p)
	}
	// Causal links must cover all four goal registers.
	covered := map[isa.Reg]bool{}
	for _, l := range p.Links {
		covered[l.Reg] = true
	}
	for _, r := range []isa.Reg{isa.RAX, isa.RDI, isa.RSI, isa.RDX} {
		if !covered[r] {
			t.Errorf("no causal link for %s", r)
		}
	}
}

func TestSearchMultipleGoals(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	for _, goal := range Goals() {
		res := Search(pool, goal, Options{MaxPlans: 1})
		if len(res.Plans) == 0 {
			t.Errorf("goal %s: no plans", goal.Name)
		}
	}
}

func TestSearchFailsWithoutProducers(t *testing.T) {
	// No gadget sets rax: execve unreachable.
	pool := poolFrom(t, "pop rdi; ret; pop rsi; ret; pop rdx; ret; syscall")
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 1})
	if len(res.Plans) != 0 {
		t.Errorf("found impossible plan: %v", res.Plans[0])
	}
}

func TestSearchFailsWithoutSyscall(t *testing.T) {
	pool := poolFrom(t, classicGadgets[:strings.LastIndex(classicGadgets, "syscall")])
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 1})
	if len(res.Plans) != 0 {
		t.Error("found plan without syscall gadget")
	}
}

func TestSearchDiversePlans(t *testing.T) {
	// Two distinct ways to set rax.
	src := classicGadgets + `
    mov rax, rbx
    ret
    pop rbx
    ret
`
	pool := poolFrom(t, src)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 6})
	if len(res.Plans) < 2 {
		t.Fatalf("expected multiple distinct plans, got %d", len(res.Plans))
	}
	sigs := map[string]bool{}
	for _, p := range res.Plans {
		if sigs[p.Signature()] {
			t.Error("duplicate plan signature returned")
		}
		sigs[p.Signature()] = true
	}
}

func TestCopyGadgetRegression(t *testing.T) {
	// rax settable only through rbx.
	src := `
    mov rax, rbx
    ret
    pop rbx
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	pool := poolFrom(t, src)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 1})
	if len(res.Plans) == 0 {
		t.Fatal("no plan via copy regression")
	}
	s := res.Plans[0].String()
	if !strings.Contains(s, "mov rax, rbx") || !strings.Contains(s, "pop rbx") {
		t.Errorf("plan does not use the copy chain: %s", s)
	}
	// pop rbx must come before mov rax, rbx in the linearization.
	if strings.Index(s, "pop rbx") > strings.Index(s, "mov rax, rbx") {
		t.Errorf("copy source ordered after copy: %s", s)
	}
}

func TestArithmeticRegression(t *testing.T) {
	// rax reachable only via inc: pop rax sets, but say rax = rbx + 1.
	src := `
    lea rax, [rbx+1]
    ret
    pop rbx
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	pool := poolFrom(t, src)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 1})
	if len(res.Plans) == 0 {
		t.Fatal("no plan via arithmetic regression")
	}
}

func TestValidateCallbackFilters(t *testing.T) {
	// A pool with at least two distinct complete plans (two rax setters).
	pool := poolFrom(t, classicGadgets+"\n    mov rax, rbx\n    ret\n    pop rbx\n    ret\n")
	calls := 0
	res := Search(pool, ExecveGoal(), Options{
		MaxPlans: 1,
		Validate: func(p *Plan) bool {
			calls++
			return calls > 1 // reject the first complete plan
		},
	})
	if res.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", res.Rejected)
	}
	if len(res.Plans) != 1 {
		t.Errorf("plans = %d, want 1 (a later plan must pass)", len(res.Plans))
	}
}

func TestPlanOrderingPrimitives(t *testing.T) {
	p := &Plan{Steps: []Step{{ID: 0}, {ID: 1}, {ID: 2}}}
	if !p.addOrder(0, 1) || !p.addOrder(1, 2) {
		t.Fatal("basic ordering failed")
	}
	if !p.orderedBefore(0, 2) {
		t.Error("transitive order not seen")
	}
	if p.addOrder(2, 0) {
		t.Error("cycle accepted")
	}
	lin := p.Linearize()
	if len(lin) != 3 || lin[0] != 0 {
		t.Errorf("linearize = %v", lin)
	}
}

func TestSpecEquality(t *testing.T) {
	if !equalSpec(ConstSpec(5), ConstSpec(5)) {
		t.Error("const spec equality")
	}
	if equalSpec(ConstSpec(5), ConstSpec(6)) {
		t.Error("const spec inequality")
	}
	if !equalSpec(PointerSpec([]byte("a")), PointerSpec([]byte("a"))) {
		t.Error("pointer spec equality")
	}
	if equalSpec(PointerSpec([]byte("a")), ConstSpec(0)) {
		t.Error("cross-kind equality")
	}
	if !equalSpec(ArbitrarySpec(), ArbitrarySpec()) {
		t.Error("arbitrary spec equality")
	}
}

// TestGoalDefinitions pins the x86-64 goals register by register, and
// that Goals and the single-goal constructors agree.
func TestGoalDefinitions(t *testing.T) {
	want := []Goal{
		{Name: "execve", Regs: map[isa.Reg]ValueSpec{
			isa.RAX: ConstSpec(59), isa.RDI: PointerSpec([]byte("/bin/sh\x00")),
			isa.RSI: ConstSpec(0), isa.RDX: ConstSpec(0)}},
		{Name: "mprotect", Regs: map[isa.Reg]ValueSpec{
			isa.RAX: ConstSpec(10), isa.RDI: ConstSpec(0x601000),
			isa.RSI: ConstSpec(0x1000), isa.RDX: ConstSpec(7)}},
		{Name: "mmap", Regs: map[isa.Reg]ValueSpec{
			isa.RAX: ConstSpec(9), isa.RDI: ConstSpec(0), isa.RSI: ConstSpec(0x1000),
			isa.RDX: ConstSpec(7), isa.R10: ConstSpec(0x22)}},
	}
	for i, got := range [][]Goal{Goals(), {ExecveGoal(), MprotectGoal(), MmapGoal()}} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("goal set %d = %v, want %v", i, got, want)
		}
	}
}
