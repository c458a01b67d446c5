package planner

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// copyPlan returns an independent copy of p.
func copyPlan(p *Plan) *Plan {
	q := &Plan{}
	q.copyFrom(p, p.Open)
	return q
}

// resolveThreatsTwoBranch is the reference resolveThreats replaced: it
// copies the plan for each branch, demotion first, and enumerates up to
// limit consistent plans instead of keeping the first one in place.
func resolveThreatsTwoBranch(p *Plan, producer, newLink, limit int) []*Plan {
	t, l, found := firstUnresolvedThreat(p, producer, newLink)
	if !found {
		return []*Plan{p}
	}
	var out []*Plan
	if q := copyPlan(p); q.addOrder(t, l.Producer) {
		out = append(out, resolveThreatsTwoBranch(q, producer, newLink, limit)...)
	}
	if len(out) < limit {
		if q := copyPlan(p); q.addOrder(l.Consumer, t) {
			out = append(out, resolveThreatsTwoBranch(q, producer, newLink, limit-len(out))...)
		}
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// hasThreat scans every (step, link) pair for a clobbering step that could
// still be ordered between the link's producer and consumer.
func hasThreat(p *Plan) bool {
	for i := range p.Steps {
		t := &p.Steps[i]
		if t.G == nil {
			continue
		}
		for _, l := range p.Links {
			if t.ID != l.Producer && t.ID != l.Consumer && clobbers(t.G, l.Reg) &&
				!p.orderedBefore(t.ID, l.Producer) && !p.orderedBefore(l.Consumer, t.ID) {
				return true
			}
		}
	}
	return false
}

// rebuiltReach is p's ancestor bitsets recomputed from Order alone.
func rebuiltReach(p *Plan) []uint64 {
	q := copyPlan(p)
	q.reach = nil
	q.ensureReach()
	return q.reach
}

// threatRegs is a small register set, so random clobber sets collide often.
var threatRegs = []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX}

// addRandomStep appends a gadget step clobbering a random subset of
// threatRegs, ordered after Start and before the goal step, as expansion
// instantiates a new producer.
func addRandomStep(rng *rand.Rand, p *Plan) int {
	g := &gadget.Gadget{ID: len(p.Steps)}
	for _, r := range threatRegs {
		if rng.Intn(2) == 0 {
			g.ClobRegs = append(g.ClobRegs, r)
		}
	}
	id := len(p.Steps)
	p.Steps = append(p.Steps, Step{ID: id, G: g})
	p.addOrder(0, id)
	if id != p.goalStep {
		p.addOrder(id, p.goalStep)
	}
	return id
}

// TestResolveThreatsProperty grows seeded random plans link by link the way
// finishLink does — a link from a new or existing step to another step —
// and checks every resolution: the in-place result agrees with the first
// plan of the two-branch enumeration (same verdict, same Order, same
// reach), a resolved plan is threat-free under a full scan with reach equal
// to the closure rebuilt from Order, and a failed one is left exactly as it
// was on entry.
func TestResolveThreatsProperty(t *testing.T) {
	resolved, failed := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &Plan{Steps: []Step{{ID: 0}}, goalStep: 1}
		addRandomStep(rng, p)
		for i := 0; i < 2+rng.Intn(6); i++ {
			addRandomStep(rng, p)
		}
		for round := 0; round < 12 && len(p.Steps) < maxOrderSteps-1; round++ {
			base := copyPlan(p)
			producer := 1 + rng.Intn(len(p.Steps)-1)
			if rng.Intn(3) == 0 {
				producer = addRandomStep(rng, p)
			}
			consumer := 1 + rng.Intn(len(p.Steps)-1)
			reg := threatRegs[rng.Intn(len(threatRegs))]
			if !p.addOrder(producer, consumer) {
				p = base
				continue
			}
			p.Links = append(p.Links, Link{Producer: producer, Consumer: consumer, Reg: reg})
			newLink := len(p.Links) - 1

			before := copyPlan(p)
			ref := resolveThreatsTwoBranch(copyPlan(p), producer, newLink, 2)
			ok := resolveThreats(p, producer, newLink)
			if ok != (len(ref) > 0) {
				t.Fatalf("seed %d round %d: in place %t, two-branch found %d plans", seed, round, ok, len(ref))
			}
			if !ok {
				if !slices.Equal(p.Order, before.Order) || !slices.Equal(p.reach, before.reach) {
					t.Fatalf("seed %d round %d: failed resolution left Order %v reach %v, want %v %v",
						seed, round, p.Order, p.reach, before.Order, before.reach)
				}
				failed++
				p = base
				continue
			}
			resolved++
			if !slices.Equal(p.Order, ref[0].Order) || !slices.Equal(p.reach, ref[0].reach) {
				t.Fatalf("seed %d round %d: Order %v differs from the two-branch reference %v",
					seed, round, p.Order, ref[0].Order)
			}
			if hasThreat(p) {
				t.Fatalf("seed %d round %d: resolved plan still has a threat", seed, round)
			}
			if want := rebuiltReach(p); !slices.Equal(p.reach, want) {
				t.Fatalf("seed %d round %d: reach %v, closure of Order %v", seed, round, p.reach, want)
			}
		}
	}
	if resolved == 0 || failed == 0 {
		t.Fatalf("generator exercised too little: %d resolved, %d failed", resolved, failed)
	}
}

// TestRejectedCandidateAllocatesNothing builds candidates that finishLink
// rejects — one whose link edge closes an ordering cycle, one whose threat
// no ordering resolves — in a reused scratch plan, and checks that neither
// allocates: expansion pays for a successor only once it is kept.
func TestRejectedCandidateAllocatesNothing(t *testing.T) {
	r0 := &gadget.Gadget{ID: 0, ClobRegs: []isa.Reg{isa.RAX}}
	clean := &gadget.Gadget{ID: 1}
	// Steps: Start, goal 1, A 2 and C 4 clobbering rax, producer B 3.
	// B precedes C, so rax from B to the goal can be protected from A (by
	// demotion) but not from C: the search demotes A, fails on C, undoes
	// the demotion, and finds promotion impossible.
	parent := RestorePlan(
		[]Step{{ID: 0}, {ID: 1, G: clean}, {ID: 2, G: r0}, {ID: 3, G: clean}, {ID: 4, G: r0}},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {2, 1}, {3, 1}, {4, 1}, {3, 4}},
		nil,
		[]Requirement{{Step: 1, Reg: isa.RAX, Spec: ConstSpec(59)}, {Step: 4, Reg: isa.RBX, Spec: ConstSpec(0)}},
		nil, 1)
	scratch := &Plan{}
	for _, c := range []struct {
		name     string
		req      Requirement
		producer int
	}{
		{"cycle", parent.Open[1], 1},        // the goal cannot precede C
		{"unresolvable", parent.Open[0], 3}, // C sits between B and the goal
	} {
		grown := 0
		allocs := testing.AllocsPerRun(100, func() {
			scratch.copyFrom(parent, parent.Open[1:])
			n := len(scratch.Order)
			if finishLink(scratch, c.req, c.producer, provideResult{}) {
				t.Fatalf("%s: candidate accepted", c.name)
			}
			grown = len(scratch.Order) - n
		})
		if allocs != 0 {
			t.Errorf("%s: rejected candidate allocated %.1f times per run", c.name, allocs)
		}
		// Neither the cyclic edge nor the undone demotion may remain (B
		// before the goal is in the parent already).
		if grown != 0 {
			t.Errorf("%s: Order grew by %d edges", c.name, grown)
		}
	}
}
