package planner

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestPlanInvariants checks structural properties of every plan the search
// returns: consistent partial order, causal links respecting it, the goal
// step last, and no syscall gadgets mid-chain.
func TestPlanInvariants(t *testing.T) {
	pool := poolFrom(t, classicGadgets+`
    mov rax, rbx
    ret
    pop rbx
    ret
    pop rbp
    jmp rax
`)
	for _, goal := range Goals() {
		res := Search(pool, goal, Options{MaxPlans: 10})
		for _, p := range res.Plans {
			if !p.Complete() {
				t.Fatalf("incomplete plan returned")
			}
			lin := p.Linearize()
			if len(lin) != len(p.Steps) {
				t.Fatalf("linearization dropped steps: %d vs %d (cyclic order?)",
					len(lin), len(p.Steps))
			}
			pos := make(map[int]int, len(lin))
			for i, id := range lin {
				pos[id] = i
			}
			// Start first, goal last.
			if lin[0] != 0 {
				t.Errorf("start not first: %v", lin)
			}
			if lin[len(lin)-1] != p.GoalStep() {
				t.Errorf("goal not last: %v", lin)
			}
			// Order edges respected.
			for _, o := range p.Order {
				if pos[o[0]] >= pos[o[1]] {
					t.Errorf("order (%d,%d) violated in %v", o[0], o[1], lin)
				}
			}
			// Causal links: producer strictly before consumer, and no step
			// between them clobbers the linked register.
			for _, l := range p.Links {
				if pos[l.Producer] >= pos[l.Consumer] {
					t.Errorf("link %v out of order", l)
				}
				for i := pos[l.Producer] + 1; i < pos[l.Consumer]; i++ {
					g := p.step(lin[i]).G
					if g != nil && clobbers(g, l.Reg) {
						t.Errorf("link on %s broken by intermediate %s", l.Reg, g)
					}
				}
			}
			// No mid-chain syscall gadgets.
			chain := p.Chain()
			for i, g := range chain {
				if g.JmpType.String() == "Syscall" && i != len(chain)-1 {
					t.Errorf("syscall gadget mid-chain at %d", i)
				}
			}
		}
	}
}

func TestSearchDeterminism(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	sig := func() []string {
		res := Search(pool, ExecveGoal(), Options{MaxPlans: 5})
		var out []string
		for _, p := range res.Plans {
			out = append(out, p.Signature())
		}
		return out
	}
	a, b := sig(), sig()
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("plan %d differs between runs", i)
		}
	}
}

func TestLinearizeRespectsThreatOrdering(t *testing.T) {
	// Two rax setters (const 59 goal and arbitrary for JOP target): the
	// ordering must prevent the goal value from being clobbered.
	src := `
    pop rax
    ret
    pop rdi
    jmp rax
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	pool := poolFrom(t, src)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 3})
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range res.Plans {
		// Find the rax=59 link and ensure nothing clobbers rax after its
		// producer up to the goal.
		lin := p.Linearize()
		pos := map[int]int{}
		for i, id := range lin {
			pos[id] = i
		}
		for _, l := range p.Links {
			if l.Reg == isa.RAX && l.Consumer == p.GoalStep() && l.Spec.Kind == SpecConst {
				for i := pos[l.Producer] + 1; i < pos[l.Consumer]; i++ {
					if g := p.step(lin[i]).G; g != nil && clobbers(g, isa.RAX) {
						t.Errorf("rax=59 clobbered mid-chain in %s", p)
					}
				}
			}
		}
	}
}
