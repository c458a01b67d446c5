package pipeline

import (
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// The stage artifact types below live here, next to the store, because they
// are what the disk tier persists: the codec (codec.go) needs a concrete
// named type per stage, and core cannot host them without an import cycle
// (pipeline is core's dependency). core re-exports Attack under its
// original name, so the public analysis API is unchanged.

// Minimized bundles the subsumption stage's two outputs — the reduced pool
// and the reduction statistics — into one artifact.
type Minimized struct {
	Pool  *gadget.Pool
	Stats subsume.Stats
}

// Attack is the outcome of the planning + payload-construction stages for
// one goal (core stages 3–4), and the plan stage's store artifact.
type Attack struct {
	Goal planner.Goal
	// Payloads are emulator-verified attack payloads, one per distinct
	// plan.
	Payloads []*payload.Payload
	// Plans are the corresponding abstract plans.
	Plans []*planner.Plan
	// Search reports planner effort.
	Search planner.Result
	// ConcretizeFailures counts plans the solver or verifier rejected.
	ConcretizeFailures int
}
