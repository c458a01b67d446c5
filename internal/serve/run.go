package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

// Progress observes per-stage completion while a request runs. Callbacks
// arrive sequentially from the executing goroutine.
type Progress func(StageEvent)

// Run executes one request against a store. It is the single executor both
// sides of the service share: the gpd server runs requests through it
// against the long-lived shared store, and a client (or test, or
// benchmark) runs the same function against a private store to obtain the
// local single-process reference — which is how the byte-identity claim is
// phrased and checked.
//
// ctx is a stage-granular cancellation boundary: between stages, and at
// every store entry (pipeline.DoCtx), a canceled context abandons the
// remaining work. A stage computation already admitted runs to completion
// — its artifact is shared with concurrent requests and is never cached
// half-finished.
func Run(ctx context.Context, store *pipeline.Store, parallelism int, req Request, progress Progress) (*Result, error) {
	rr, err := req.resolve()
	if err != nil {
		return nil, err
	}
	return run(ctx, store, parallelism, rr, progress)
}

// run executes a resolved request (see Run).
func run(ctx context.Context, store *pipeline.Store, parallelism int, rr *resolved, progress Progress) (*Result, error) {
	var err error
	res := &Result{Key: rr.key, Op: rr.req.Op, Name: rr.req.Name}
	emit := func(ev StageEvent) {
		res.Stages = append(res.Stages, ev)
		if progress != nil {
			progress(ev)
		}
	}
	emitInfo := func(stage string, info pipeline.Info) {
		emit(StageEvent{
			Stage:      stage,
			Cached:     info.Hit,
			Millis:     float64(info.Compute.Microseconds()) / 1000,
			AllocBytes: info.AllocBytes,
		})
	}

	// Take the prebuilt binary resolve decoded, or build (through the
	// store) from source.
	bin := rr.binary
	if bin == nil {
		var info pipeline.Info
		bin, info, err = pipeline.BuildISACtx(ctx, store, rr.prog, rr.passes, rr.req.Seed, rr.isa)
		if err != nil {
			return nil, err
		}
		emitInfo("build", info)
		if res.Name == "" {
			res.Name = rr.prog.Name
		}
	}
	if rr.req.SelfMod != 0 {
		var info pipeline.Info
		bin, info, err = pipeline.SelfModifyCtx(ctx, store, bin, byte(rr.req.SelfMod))
		if err != nil {
			return nil, err
		}
		emitInfo("encode", info)
	}
	res.TextBytes = bin.CodeSize()

	switch rr.req.Op {
	case OpCount:
		counts, info, err := pipeline.CountCtx(ctx, store, bin, parallelism)
		if err != nil {
			return nil, err
		}
		emitInfo("count", info)
		res.Counts = CountRows(counts)
		res.Gadgets = gadget.TotalCount(counts)
		return res, nil

	case OpAnalyze, OpPlan:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := core.Analyze(bin, core.Config{
			Planner:     rr.popts,
			Parallelism: parallelism,
			Store:       store,
		})
		for _, t := range a.Timings {
			emit(timingEvent(t))
		}
		res.RawPool = a.RawPool.Size()
		res.Pool = a.Pool.Size()
		res.Subsume = a.SubsumeStats.String()

		for _, goal := range rr.goals {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			before := len(a.Timings)
			atk := a.FindPayloads(goal)
			for _, t := range a.Timings[before:] {
				emit(timingEvent(t))
			}
			gr := GoalResult{
				Goal:   goal.Name,
				Plans:  len(atk.Plans),
				Search: atk.Search.StatsLine(),
			}
			for _, pl := range atk.Payloads {
				sum := sha256.Sum256(pl.Bytes)
				gr.Payloads = append(gr.Payloads, PayloadResult{
					Bytes:   len(pl.Bytes),
					Gadgets: len(pl.Chain),
					SHA256:  hex.EncodeToString(sum[:]),
					Base:    pl.Base,
					Entry:   pl.Entry,
					Data:    pl.Bytes,
				})
			}
			res.Goals = append(res.Goals, gr)
		}
		return res, nil
	}
	return res, nil
}

func timingEvent(t core.StageTiming) StageEvent {
	return StageEvent{
		Stage:      t.Name,
		Cached:     t.Cached,
		Millis:     float64(t.Duration.Microseconds()) / 1000,
		AllocBytes: t.AllocBytes,
	}
}
