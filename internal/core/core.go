// Package core is Gadget-Planner's public pipeline API: it wires the four
// stages of the paper's workflow (gadget extraction, subsumption testing,
// partial-order planning, payload post-processing) behind two calls —
// Analyze (stages 1–2, producing the gadget library) and FindPayloads
// (stages 3–4, producing verified attack payloads for a goal) — with
// per-stage time and memory accounting (Table VII).
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// The payload-stage parameters. Both feed the plan-stage key, so every
// caller that keys plan artifacts (core, serve) uses these constants.
const (
	// DefaultPayloadBase is the stack address payloads are concretized for
	// unless Config.PayloadBase names another; the threat model assumes it
	// is known.
	DefaultPayloadBase uint64 = 0x7FFF_8000
	// VerifySteps bounds emulated payload verification.
	VerifySteps uint64 = 100_000
)

// Config tunes the pipeline. Extraction runs under the binary's own ISA
// tag and subsumption with default options.
type Config struct {
	// Planner configures stage 3.
	Planner planner.Options
	// PayloadBase is the stack address payloads are concretized for
	// (default DefaultPayloadBase).
	PayloadBase uint64
	// SkipSubsume disables stage 2 (ablation).
	SkipSubsume bool
	// GadgetFilter, if set, restricts the pool to gadgets it accepts
	// (ablation: gadget-class studies). The filtered pool is keyed by the
	// gadgets the filter kept, so two filters that keep the same gadgets
	// share its minimize and plan artifacts.
	GadgetFilter func(*gadget.Gadget) bool
	// Parallelism is how many workers extraction, subsumption, and
	// planning use (0 = runtime.GOMAXPROCS(0), 1 = single-threaded).
	// Results are identical at every worker count.
	Parallelism int
	// Store is the content-addressed artifact store the pipeline stages
	// consult: stages whose fingerprinted inputs were already computed —
	// by this analysis, a sibling cell, or an earlier experiment sharing
	// the store — are served from it, and concurrent requests for one
	// artifact compute it exactly once. Nil gets a private
	// pipeline.NewStore(). A store opened with a persistent tier
	// (pipeline.OpenDisk + Store.WithDisk) additionally serves artifacts
	// computed by earlier processes, byte-identically.
	Store *pipeline.Store
}

func (c Config) withDefaults() Config {
	if c.PayloadBase == 0 {
		c.PayloadBase = DefaultPayloadBase
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	c.Planner.Parallelism = c.Parallelism
	if c.Store == nil {
		c.Store = pipeline.NewStore()
	}
	return c
}

// StageTiming records one pipeline stage's cost (Table VII rows).
type StageTiming struct {
	Name string
	// Duration is the cost of computing the stage's artifact. When the
	// artifact was served from Config.Store (Cached), it is the recorded
	// cost of the original computation, not this call's near-zero lookup
	// time — so per-stage tables stay meaningful warm or cold, and the
	// wall-clock savings show up in suite totals instead.
	Duration time.Duration
	// AllocBytes is the heap allocated computing the stage (a proxy for
	// the paper's peak-memory column).
	AllocBytes uint64
	// Cached reports the stage was served from the artifact store.
	Cached bool
}

// timingOf converts a store request outcome into a timing row.
func timingOf(name string, info pipeline.Info) StageTiming {
	return StageTiming{
		Name:       name,
		Duration:   info.Compute,
		AllocBytes: info.AllocBytes,
		Cached:     info.Hit,
	}
}

// Analysis is the result of stages 1–2 on one binary.
type Analysis struct {
	Binary *sbf.Binary
	// RawPool is the pool before subsumption testing.
	RawPool *gadget.Pool
	// Pool is the minimized gadget library the planner searches.
	Pool *gadget.Pool
	// SubsumeStats reports the stage-2 reduction.
	SubsumeStats subsume.Stats
	// Timings holds per-stage costs accumulated so far.
	Timings []StageTiming

	cfg Config
	// poolKey is the artifact key of Pool.
	poolKey string
}

// Analyze runs gadget extraction and subsumption testing. Each stage is
// served from Config.Store when its fingerprinted inputs — binary content
// plus stage options — were already computed; results are byte-identical
// either way.
func Analyze(bin *sbf.Binary, cfg Config) *Analysis {
	cfg = cfg.withDefaults()
	a := &Analysis{Binary: bin, cfg: cfg}
	// Pre-multi-ISA binaries carry an empty ISA tag (x64), which keeps the
	// extraction fingerprint — and every warm cache key — unchanged.
	xopts := gadget.Options{ISA: bin.ISA, Parallelism: cfg.Parallelism}
	sopts := subsume.Options{Parallelism: cfg.Parallelism}

	rawKey := pipeline.ExtractKey(pipeline.BinaryKey(bin), xopts)
	raw, xinfo, err := pipeline.DoCtx(context.TODO(), cfg.Store, pipeline.StageExtract, rawKey,
		func() (*gadget.Pool, error) { return gadget.Extract(bin, xopts), nil })
	if err != nil {
		panic(err) // the stage cannot fail: err is a recovered panic
	}
	a.RawPool = raw
	a.Timings = append(a.Timings, timingOf("extraction", xinfo))

	pool := a.RawPool
	poolKey := rawKey
	if cfg.GadgetFilter != nil {
		var kept []int // raw-pool IDs, which are pool positions
		pool = pool.Filter(func(g *gadget.Gadget) bool {
			ok := cfg.GadgetFilter(g)
			if ok {
				kept = append(kept, g.ID)
			}
			return ok
		})
		poolKey = pipeline.FilterKey(rawKey, kept)
	}

	if cfg.SkipSubsume {
		a.Pool = pool
		a.SubsumeStats = subsume.Stats{Before: pool.Size(), After: pool.Size()}
		a.poolKey = pipeline.SkipSubsumeKey(poolKey)
		return a
	}
	minKey := pipeline.MinimizeKey(poolKey, sopts)
	min, minfo, err := pipeline.DoCtx(context.TODO(), cfg.Store, pipeline.StageMinimize, minKey,
		func() (pipeline.Minimized, error) {
			p, s := subsume.Minimize(pool, sopts)
			return pipeline.Minimized{Pool: p, Stats: s}, nil
		})
	if err != nil {
		panic(err)
	}
	a.Pool, a.SubsumeStats = min.Pool, min.Stats
	a.poolKey = minKey
	a.Timings = append(a.Timings, timingOf("subsumption", minfo))
	return a
}

// FindPayloads runs planning and payload construction toward one goal
// (stages 3–4). Every returned payload has been validated end-to-end in
// the emulator against the analyzed binary.
func (a *Analysis) FindPayloads(goal planner.Goal) *pipeline.Attack {
	atk, timing := a.findPayloads(goal)
	a.Timings = append(a.Timings, timing)
	return atk
}

// findPayloads is FindPayloads without the shared-state bookkeeping, so
// FindAll can fan goals out across goroutines. The search runs on a
// private deep copy of the pool: payload concretization interns fresh
// expression nodes into the pool builder, so goals sharing one builder
// would race — and because the clone is built deterministically, results
// are a function of the pool alone, identical however many goals run
// concurrently. That same cloning is what makes the plan artifact safely
// shareable: the store's pool artifact is never mutated.
func (a *Analysis) findPayloads(goal planner.Goal) (*pipeline.Attack, StageTiming) {
	cfg := a.cfg
	key := pipeline.PlanKey(a.poolKey, goal.Name, cfg.Planner, cfg.PayloadBase, VerifySteps)
	atk, info, err := pipeline.DoCtx(context.TODO(), cfg.Store, pipeline.StagePlan, key,
		func() (*pipeline.Attack, error) {
			atk := &pipeline.Attack{Goal: goal}
			pool := gadget.ClonePool(a.Pool)
			conc := payload.NewConcretizer(pool, a.Binary, cfg.PayloadBase)

			opts := cfg.Planner
			opts.Validate = func(p *planner.Plan) bool {
				pl, err := conc.Concretize(p, goal)
				if err == nil {
					err = payload.Verify(a.Binary, pl, VerifySteps)
				}
				if err != nil {
					atk.ConcretizeFailures++
					return false
				}
				atk.Payloads = append(atk.Payloads, pl)
				return true
			}

			res := planner.Search(pool, goal, opts)
			atk.Search = *res
			atk.Plans = res.Plans
			return atk, nil
		})
	if err != nil {
		panic(err)
	}
	return atk, timingOf("planning:"+goal.Name, info)
}

// FindAll runs all three standard attack goals (Table IV columns). The
// goals are fanned out on Config.Parallelism workers; results and timing
// rows are collected in the canonical goal order, so output is identical
// to the serial path.
func (a *Analysis) FindAll() map[string]*pipeline.Attack {
	// Goals are expressed in the pool's backend syscall ABI; for x64 pools
	// this is exactly planner.Goals().
	goals := planner.GoalsForISA(a.Pool.ISA)
	attacks := make([]*pipeline.Attack, len(goals))
	timings := make([]StageTiming, len(goals))
	par.For(a.cfg.Parallelism, len(goals), func(i int) {
		attacks[i], timings[i] = a.findPayloads(goals[i])
	})
	out := make(map[string]*pipeline.Attack, len(goals))
	for i, goal := range goals {
		a.Timings = append(a.Timings, timings[i])
		out[goal.Name] = attacks[i]
	}
	return out
}

// TotalPayloads sums payload counts across goals.
func TotalPayloads(attacks map[string]*pipeline.Attack) int {
	n := 0
	for _, atk := range attacks {
		n += len(atk.Payloads)
	}
	return n
}

// ChainStats summarizes chains for Table V: average gadget length, average
// chain length (both in instructions), and gadget-type composition.
type ChainStats struct {
	Chains       int
	AvgGadgetLen float64 // instructions per gadget
	AvgChainLen  float64 // instructions per chain
	PctRet       float64
	PctIndirect  float64
	PctDirect    float64 // merged across a direct jump
	PctCond      float64
}

// Summarize computes Table V metrics over a set of plans.
func Summarize(plans []*planner.Plan) ChainStats {
	var s ChainStats
	totGadgets, totInsts := 0, 0
	var ret, ind, dir, cond int
	for _, p := range plans {
		s.Chains++
		chainInsts := 0
		for _, g := range p.Chain() {
			totGadgets++
			chainInsts += g.NumInsts()
			switch {
			case g.HasCond:
				cond++
			case g.Merged:
				dir++
			case g.Effect.End == symex.EndJmpInd || g.Effect.End == symex.EndCallInd:
				ind++
			default:
				ret++
			}
		}
		totInsts += chainInsts
	}
	if totGadgets > 0 {
		s.AvgGadgetLen = float64(totInsts) / float64(totGadgets)
		s.PctRet = 100 * float64(ret) / float64(totGadgets)
		s.PctIndirect = 100 * float64(ind) / float64(totGadgets)
		s.PctDirect = 100 * float64(dir) / float64(totGadgets)
		s.PctCond = 100 * float64(cond) / float64(totGadgets)
	}
	if s.Chains > 0 {
		s.AvgChainLen = float64(totInsts) / float64(s.Chains)
	}
	return s
}

// String renders the stats as a Table V row.
func (s ChainStats) String() string {
	return fmt.Sprintf("chains=%d gadgetLen=%.1f chainLen=%.1f ret=%.0f%% ij=%.0f%% dj=%.0f%% cj=%.0f%%",
		s.Chains, s.AvgGadgetLen, s.AvgChainLen, s.PctRet, s.PctIndirect, s.PctDirect, s.PctCond)
}
