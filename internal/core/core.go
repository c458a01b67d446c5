// Package core is Gadget-Planner's public pipeline API: it wires the four
// stages of the paper's workflow (gadget extraction, subsumption testing,
// partial-order planning, payload post-processing) behind two calls —
// Analyze (stages 1–2, producing the gadget library) and FindPayloads
// (stages 3–4, producing verified attack payloads for a goal) — with
// per-stage time and memory accounting (Table VII).
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Config tunes the pipeline.
type Config struct {
	// Extract configures stage 1.
	Extract gadget.Options
	// Subsume configures stage 2.
	Subsume subsume.Options
	// Planner configures stage 3.
	Planner planner.Options
	// PayloadBase is the stack address payloads are concretized for
	// (default 0x7FFF8000; the threat model assumes it is known).
	PayloadBase uint64
	// VerifySteps bounds emulated payload verification (default 100k).
	VerifySteps uint64
	// SkipSubsume disables stage 2 (ablation).
	SkipSubsume bool
	// GadgetFilter, if set, restricts the pool to gadgets it accepts
	// (ablation: gadget-class studies).
	GadgetFilter func(*gadget.Gadget) bool
	// SkipVerify accepts solver-concretized payloads without emulating
	// them (used only by performance benchmarks).
	SkipVerify bool
	// Parallelism is how many workers extraction, subsumption, and
	// planning may use (0 = runtime.GOMAXPROCS(0), 1 = single-threaded).
	// Stage-level settings in Extract/Subsume/Planner, when non-zero,
	// take precedence. Results are identical at every worker count.
	Parallelism int
	// Store, if set, is the content-addressed artifact store the pipeline
	// stages consult (pipeline.NewStore()): stages whose fingerprinted
	// inputs were already computed — by this analysis, a sibling cell, or
	// an earlier experiment sharing the store — are served from it, and
	// concurrent requests for one artifact compute it exactly once.
	// Results are byte-identical with or without a store. Nil computes
	// every stage directly. A closure-valued GadgetFilter cannot be
	// fingerprinted, so when it is set only extraction is cached. A store
	// opened with a persistent tier (pipeline.OpenDisk + Store.WithDisk)
	// additionally serves artifacts computed by earlier processes, still
	// byte-identically.
	Store *pipeline.Store
}

func (c Config) withDefaults() Config {
	if c.PayloadBase == 0 {
		c.PayloadBase = 0x7FFF_8000
	}
	if c.VerifySteps == 0 {
		c.VerifySteps = 100_000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Extract.Parallelism == 0 {
		c.Extract.Parallelism = c.Parallelism
	}
	if c.Subsume.Parallelism == 0 {
		c.Subsume.Parallelism = c.Parallelism
	}
	if c.Planner.Parallelism == 0 {
		c.Planner.Parallelism = c.Parallelism
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
	// poolKey is the artifact key of Pool; "" when the analysis ran
	// without a store or through an unfingerprintable GadgetFilter, in
	// which case plan-stage results are computed directly.
	poolKey string
}

// Analyze runs gadget extraction and subsumption testing. With Config.Store
// set, each stage is served from the content-addressed artifact store when
// its fingerprinted inputs — binary content plus stage options — were
// already computed; results are byte-identical either way.
func Analyze(bin *sbf.Binary, cfg Config) *Analysis {
	cfg = cfg.withDefaults()
	// Adopt the binary's backend unless the caller pinned one explicitly.
	// Pre-multi-ISA binaries carry an empty ISA tag (x64), which keeps the
	// extraction fingerprint — and every warm cache key — unchanged.
	if cfg.Extract.ISA == "" {
		cfg.Extract.ISA = bin.ISA
	}
	a := &Analysis{Binary: bin, cfg: cfg}

	var rawKey string
	if cfg.Store != nil {
		rawKey = pipeline.ExtractKey(cfg.Store.BinaryKey(bin), cfg.Extract)
	}
	raw, xinfo, err := pipeline.Do(cfg.Store, pipeline.StageExtract, rawKey,
		func() (*gadget.Pool, error) { return gadget.Extract(bin, cfg.Extract), nil })
	if err != nil {
		panic(err) // the stage cannot fail: err is a recovered panic
	}
	a.RawPool = raw
	a.Timings = append(a.Timings, timingOf("extraction", xinfo))

	pool := a.RawPool
	poolKey := rawKey
	if cfg.GadgetFilter != nil {
		poolKey = "" // closures have no canonical fingerprint
		filtered := &gadget.Pool{
			Builder: pool.Builder,
			ISA:     pool.ISA,
			ByReg:   make(map[isa.Reg][]*gadget.Gadget),
			Stats:   pool.Stats,
		}
		for _, g := range pool.Gadgets {
			if cfg.GadgetFilter(g) {
				addGadget(filtered, g)
			}
		}
		// The copied stats describe the unfiltered pool; recompute the
		// pool-content counters so they reflect what the filter kept.
		// Scan-level counters (offsets, raw candidates, unsupported) are
		// properties of the binary, not the filter, and stay as-is.
		filtered.Stats.Supported = len(filtered.Gadgets)
		filtered.Stats.MergedGadgets = 0
		filtered.Stats.ByType = make(map[gadget.JmpType]int)
		for _, g := range filtered.Gadgets {
			if g.Merged {
				filtered.Stats.MergedGadgets++
			}
			filtered.Stats.ByType[g.JmpType]++
		}
		pool = filtered
	}

	if cfg.SkipSubsume {
		a.Pool = pool
		a.SubsumeStats = subsume.Stats{Before: pool.Size(), After: pool.Size()}
		if poolKey != "" {
			a.poolKey = pipeline.SkipSubsumeKey(poolKey)
		}
		return a
	}
	var minKey string
	if poolKey != "" {
		minKey = pipeline.MinimizeKey(poolKey, cfg.Subsume)
	}
	min, minfo, err := pipeline.Do(cfg.Store, pipeline.StageMinimize, minKey,
		func() (pipeline.Minimized, error) {
			p, s := subsume.Minimize(pool, cfg.Subsume)
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

// Attack is the outcome of stages 3–4 for one goal. The type lives in
// internal/pipeline — it is the plan stage's store artifact, which the
// persistent tier serializes — and core re-exports it unchanged.
type Attack = pipeline.Attack

// FindPayloads runs planning and payload construction toward one goal.
// Every returned payload has been validated end-to-end in the emulator
// against the analyzed binary (unless SkipVerify).
func (a *Analysis) FindPayloads(goal planner.Goal) *Attack {
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
func (a *Analysis) findPayloads(goal planner.Goal) (*Attack, StageTiming) {
	cfg := a.cfg
	var key string
	if a.poolKey != "" {
		key = pipeline.PlanKey(a.poolKey, goal.Name, cfg.Planner,
			cfg.PayloadBase, cfg.VerifySteps, cfg.SkipVerify)
	}
	atk, info, err := pipeline.Do(cfg.Store, pipeline.StagePlan, key,
		func() (*Attack, error) {
			atk := &Attack{Goal: goal}
			pool := gadget.ClonePool(a.Pool)
			conc := payload.NewConcretizer(pool, a.Binary, cfg.PayloadBase)

			opts := cfg.Planner
			opts.Validate = func(p *planner.Plan) bool {
				pl, err := conc.Concretize(p, goal)
				if err != nil {
					atk.ConcretizeFailures++
					return false
				}
				if !cfg.SkipVerify {
					stop := pipeline.TrackWall("verify")
					err := payload.Verify(a.Binary, pl, cfg.VerifySteps)
					stop()
					if err != nil {
						atk.ConcretizeFailures++
						return false
					}
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
func (a *Analysis) FindAll() map[string]*Attack {
	// Goals are expressed in the pool's backend syscall ABI; for x64 pools
	// this is exactly planner.Goals().
	goals := planner.GoalsForISA(a.Pool.ISA)
	attacks := make([]*Attack, len(goals))
	timings := make([]StageTiming, len(goals))
	workers := a.cfg.Parallelism
	if workers > len(goals) {
		workers = len(goals)
	}
	if workers <= 1 {
		for i, goal := range goals {
			attacks[i], timings[i] = a.findPayloads(goal)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					attacks[i], timings[i] = a.findPayloads(goals[i])
				}
			}()
		}
		for i := range goals {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	out := make(map[string]*Attack, len(goals))
	for i, goal := range goals {
		a.Timings = append(a.Timings, timings[i])
		out[goal.Name] = attacks[i]
	}
	return out
}

// TotalPayloads sums payload counts across goals.
func TotalPayloads(attacks map[string]*Attack) int {
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

// addGadget mirrors the pool insertion logic for filtered pools.
func addGadget(p *gadget.Pool, g *gadget.Gadget) {
	p.Gadgets = append(p.Gadgets, g)
	if g.JmpType == gadget.TypeSyscall {
		p.Syscalls = append(p.Syscalls, g)
	}
	for _, r := range g.ClobRegs {
		p.ByReg[r] = append(p.ByReg[r], g)
	}
}
