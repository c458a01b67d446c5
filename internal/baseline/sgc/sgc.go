// Package sgc re-implements the SGC baseline (paper Section II-B): gadget
// chaining driven by logical formulas and an SMT solver. SGC is the
// strongest comparator: it handles return and indirect-jump gadgets and
// synthesizes chains with the solver — but it applies a gadget selection
// function that narrows the candidate pool, and it does not use
// conditional-jump or merged direct-jump gadgets (paper Table V row SGC).
//
// The implementation shares Gadget-Planner's backward search and solver
// machinery but restricts the pool and search budget accordingly, so the
// comparison isolates exactly the capabilities the paper credits each tool
// with.
package sgc

import (
	"github.com/nofreelunch/gadget-planner/internal/baseline"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// Tool is the SGC baseline.
type Tool struct {
	// MaxPlans bounds chains per goal. Default 8.
	MaxPlans int
	// MaxNodes bounds search effort (SGC's timeout analogue). Default 4000.
	MaxNodes int
}

var _ baseline.Tool = (*Tool)(nil)

// Name implements baseline.Tool.
func (*Tool) Name() string { return "SGC" }

// Run implements baseline.Tool.
func (t *Tool) Run(bin *sbf.Binary) *baseline.Result {
	maxPlans := t.MaxPlans
	if maxPlans == 0 {
		maxPlans = 8
	}
	maxNodes := t.MaxNodes
	if maxNodes == 0 {
		maxNodes = 4000
	}

	res := &baseline.Result{ToolName: t.Name()}
	raw := gadget.Extract(bin, gadget.Options{ISA: bin.ISA})
	res.GadgetsTotal = raw.Stats.Supported

	// SGC's gadget selection: return and indirect-jump gadgets only; no
	// conditional paths, no merged direct jumps.
	filtered := raw.Filter(func(g *gadget.Gadget) bool { return !g.HasCond && !g.Merged })
	pool, _ := subsume.Minimize(filtered, subsume.Options{})

	for _, goal := range planner.GoalsForISA(pool.ISA) {
		goal := goal
		conc := payload.NewConcretizer(pool, bin, core.DefaultPayloadBase)
		search := planner.Search(pool, goal, planner.Options{
			MaxPlans:   maxPlans,
			MaxNodes:   maxNodes,
			Candidates: 4, // narrowed candidate sets per the paper
			Validate: func(p *planner.Plan) bool {
				pl, err := conc.Concretize(p, goal)
				if err != nil {
					return false
				}
				return payload.Verify(bin, pl, core.VerifySteps) == nil
			},
		})
		for _, p := range search.Plans {
			res.Chains = append(res.Chains, baseline.Chain{
				Goal:     goal.Name,
				Gadgets:  p.Chain(),
				Verified: true,
			})
		}
	}
	res.FillUsed()
	return res
}
