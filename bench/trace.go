package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/minic"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/serve"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// The payload parameters serve.Run always uses (they are part of the
// plan-stage key).
const (
	payloadBase = 0x7FFF_8000
	verifySteps = 100_000
)

// span is one timed call into a layer. Spans live in memory for the traced
// pass and are written out as JSONL when it ends.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	Dur    int64            `json:"dur_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer records the spans of the traced pass. The pass runs on one
// goroutine (the planner calls Validate on its coordinator goroutine while
// the caller waits), so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.t0)) - s.Start
}

func (t *tracer) set(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// source resolves what a request builds, the program and the obfuscation
// passes, as serve.Run resolves them.
func source(req serve.Request) (benchprog.Program, []obfuscate.Pass, error) {
	p := benchprog.Program{Name: req.Name, Source: req.Source}
	if req.Program != "" {
		var ok bool
		if p, ok = benchprog.ByName(req.Program); !ok {
			return p, nil, fmt.Errorf("bench: unknown program %q", req.Program)
		}
	}
	passes, err := obfuscate.ParseSpec(req.Obf)
	return p, passes, err
}

// buildOf fetches (or computes) a cell's binary through a store.
func buildOf(ctx context.Context, store *pipeline.Store, req serve.Request) (*sbf.Binary, pipeline.Info, error) {
	p, passes, err := source(req)
	if err != nil {
		return nil, pipeline.Info{}, err
	}
	return pipeline.BuildISACtx(ctx, store, p, passes, req.Seed, req.ISA)
}

func goalByName(isaName, name string) (planner.Goal, bool) {
	for _, g := range planner.GoalsForISA(isa.CanonicalISA(isaName)) {
		if g.Name == name {
			return g, true
		}
	}
	return planner.Goal{}, false
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// rebuild recomputes cell c the way serve.Run does, but calls each layer's
// public function directly under its own span: parse, lower, obfuscate,
// compile, then count, or predecode, extract, minimize and one search per
// goal with concretize and verify timed inside the Validate hook. It returns
// the outcome serve.Run reports for the cell and the binary it built.
func rebuild(tr *tracer, c cell) (outcome, *sbf.Binary, error) {
	op := tr.begin(0, "op.compute")
	defer tr.end(op)
	req := c.Req

	id := tr.begin(op, "serve.key")
	key, err := req.Key()
	tr.end(id)
	if err != nil {
		return outcome{}, nil, err
	}
	prog, passes, err := source(req)
	if err != nil {
		return outcome{}, nil, err
	}

	id = tr.begin(op, "minic.parse")
	ast, err := minic.Parse(codegen.RuntimePrelude + "\n" + prog.Source)
	tr.end(id)
	if err != nil {
		return outcome{}, nil, err
	}
	id = tr.begin(op, "mir.lower")
	mod, err := mir.Lower(ast)
	tr.end(id)
	if err != nil {
		return outcome{}, nil, err
	}
	if len(passes) > 0 {
		id = tr.begin(op, "obfuscate.apply")
		err = obfuscate.Apply(mod, req.Seed, passes...)
		tr.end(id)
		if err != nil {
			return outcome{}, nil, err
		}
	}
	id = tr.begin(op, "codegen.compile")
	bin, err := codegen.Compile(mod, codegen.Options{ISA: req.ISA})
	tr.end(id)
	if err != nil {
		return outcome{}, nil, err
	}
	tr.set(id, "code_bytes", int64(bin.CodeSize()))

	out := outcome{Key: key, Op: req.Op, TextBytes: bin.CodeSize()}
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		return outcome{}, nil, fmt.Errorf("bench: %s: unknown binary ISA %q", c.ID, bin.ISA)
	}
	if req.Op == serve.OpCount {
		id = tr.begin(op, "gadget.count")
		counts := gadget.CountISA(bin, 0, be)
		tr.end(id)
		out.Counts = serve.CountRows(counts)
		return out, bin, nil
	}

	id = tr.begin(op, "gadget.predecode")
	gadget.PredecodeISA(bin, parallelism, be)
	tr.end(id)
	id = tr.begin(op, "gadget.extract")
	raw := gadget.Extract(bin, gadget.Options{ISA: bin.ISA, Parallelism: parallelism})
	tr.end(id)
	tr.set(id, "offsets", int64(raw.Stats.ScannedOffsets))
	tr.set(id, "raw_candidates", int64(raw.Stats.RawCandidates))
	tr.set(id, "supported", int64(raw.Stats.Supported))

	id = tr.begin(op, "subsume.minimize")
	pool, st := subsume.Minimize(raw, subsume.Options{Parallelism: parallelism})
	tr.end(id)
	tr.set(id, "pool_min", int64(pool.Size()))
	tr.set(id, "queries", st.SolverQueries)
	tr.set(id, "tier_eval", st.EvalRefuted)
	tr.set(id, "tier_witness", st.WitnessRefuted)
	tr.set(id, "tier_cache", st.CacheHits)
	tr.set(id, "tier_blasted", st.Blasted)
	// Queries no other tier answered were settled by constant folding.
	tr.set(id, "tier_const", st.SolverQueries-st.EvalRefuted-st.WitnessRefuted-st.CacheHits-st.Blasted)
	out.RawPool, out.Pool = raw.Size(), pool.Size()

	for _, goal := range planner.GoalsForISA(isa.CanonicalISA(req.ISA)) {
		// Like core, search a private clone: concretization interns
		// expression nodes into the pool's builder.
		clone := gadget.ClonePool(pool)
		conc := payload.NewConcretizer(clone, bin, payloadBase)
		search := tr.begin(op, "planner.search")
		gr := goalOutcome{Goal: goal.Name}
		opts := planner.Options{MaxPlans: maxPlans, MaxNodes: maxNodes, Parallelism: parallelism}
		opts.Validate = func(p *planner.Plan) bool {
			id := tr.begin(search, "payload.concretize")
			pl, err := conc.Concretize(p, goal)
			tr.end(id)
			if err != nil {
				tr.set(id, "failed", 1)
				return false
			}
			id = tr.begin(search, "emu.verify")
			err = payload.Verify(bin, pl, verifySteps)
			tr.end(id)
			if err != nil {
				tr.set(id, "failed", 1)
				return false
			}
			gr.Payloads = append(gr.Payloads, sha(pl.Bytes))
			return true
		}
		res := planner.Search(clone, goal, opts)
		tr.end(search)
		tr.set(search, "expanded", int64(res.Expanded))
		tr.set(search, "generated", int64(res.Generated))
		tr.set(search, "plans", int64(len(res.Plans)))
		tr.set(search, "rejected", int64(res.Rejected))
		tr.set(search, "cache_hits", res.CacheHits)
		tr.set(search, "cache_misses", res.CacheMisses)
		gr.Plans = len(res.Plans)
		out.Goals = append(out.Goals, gr)
	}
	return out, bin, nil
}

// traceCompute rebuilds every cell the workload computes cold, layer by
// layer, and fails the ops whose outcome differs from serve.Run's golden.
func (r *runner) traceCompute() {
	for _, c := range r.cells {
		out, _, err := rebuild(r.tr, c)
		r.rec.traced(c, out, err)
	}
}

// servedRounds and diskRounds repeat the traced serve and disk-read passes
// so their per-op means rest on a few hundred ops.
const (
	servedRounds = 10
	diskRounds   = 20
)

// traceServed splits warm requests to gpd into their parts: the request
// key, serve.Run on the warm store in process, JSON encoding of the
// result, and the client's round trip over the socket.
func (r *runner) traceServed(store *pipeline.Store, client *serve.Client) {
	for round := 0; round < servedRounds; round++ {
		for i, c := range r.cells {
			op := r.tr.begin(0, "op.served")
			id := r.tr.begin(op, "serve.key")
			_, _ = c.Req.Key() // validated by the round trip below
			r.tr.end(id)
			id = r.tr.begin(op, "serve.run")
			res, err := serve.Run(r.ctx, store, parallelism, c.Req, nil)
			r.tr.end(id)
			if err == nil {
				id = r.tr.begin(op, "serve.encode")
				_, err = json.Marshal(res)
				r.tr.end(id)
			}
			if err != nil {
				r.tr.end(op)
				r.rec.untimed(i, nil, err)
				continue
			}
			id = r.tr.begin(op, "serve.roundtrip")
			res, err = client.Run(r.ctx, c.Req, nil)
			r.tr.end(id)
			r.tr.end(op)
			r.rec.untimed(i, res, err)
		}
	}
}

// traceDisk times what a second process pays on a disk cache that holds
// every stage: opening the cache, then per cell the build, the analysis
// (extract and minimize) and each goal's plan, all decoded from disk.
func (r *runner) traceDisk(dir string) error {
	for round := 0; round < diskRounds; round++ {
		id := r.tr.begin(0, "pipeline.disk_open")
		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		r.tr.end(id)
		if err != nil {
			return err
		}
		store := pipeline.NewStore().WithDisk(disk)
		for _, c := range r.cells {
			out, err := r.diskOp(store, c)
			r.rec.traced(c, out, err)
		}
	}
	return nil
}

func (r *runner) diskOp(store *pipeline.Store, c cell) (outcome, error) {
	op := r.tr.begin(0, "op.disk")
	defer r.tr.end(op)
	key, err := c.Req.Key()
	if err != nil {
		return outcome{}, err
	}
	id := r.tr.begin(op, "pipeline.disk_build_read")
	bin, info, err := buildOf(r.ctx, store, c.Req)
	r.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	cached := info.Hit
	id = r.tr.begin(op, "pipeline.disk_pool_read")
	a := core.Analyze(bin, core.Config{
		Planner:     planner.Options{MaxPlans: maxPlans, MaxNodes: maxNodes},
		Parallelism: parallelism,
		Store:       store,
	})
	r.tr.end(id)
	out := outcome{Key: key, Op: c.Req.Op, TextBytes: bin.CodeSize(), RawPool: a.RawPool.Size(), Pool: a.Pool.Size()}
	for _, goal := range planner.GoalsForISA(isa.CanonicalISA(c.Req.ISA)) {
		id = r.tr.begin(op, "pipeline.disk_plan_read")
		atk := a.FindPayloads(goal)
		r.tr.end(id)
		gr := goalOutcome{Goal: goal.Name, Plans: len(atk.Plans)}
		for _, pl := range atk.Payloads {
			gr.Payloads = append(gr.Payloads, sha(pl.Bytes))
		}
		out.Goals = append(out.Goals, gr)
	}
	for _, t := range a.Timings {
		cached = cached && t.Cached
	}
	if !cached {
		return out, fmt.Errorf("a stage was computed, not read from disk")
	}
	return out, nil
}

// storeCounters are the store's memory and disk traffic over the timed
// window.
type storeCounters struct {
	memHits, memMisses, diskRead, diskWritten int64
}

func countersOf(store *pipeline.Store) storeCounters {
	var c storeCounters
	for _, st := range store.Stats() {
		c.memHits += st.Hits
		c.memMisses += st.Misses
	}
	ds := store.DiskStats()
	c.diskRead, c.diskWritten = ds.BytesRead, ds.BytesWritten
	return c
}

func (c *storeCounters) add(o storeCounters) {
	c.memHits += o.memHits
	c.memMisses += o.memMisses
	c.diskRead += o.diskRead
	c.diskWritten += o.diskWritten
}

func (c storeCounters) sub(o storeCounters) storeCounters {
	return storeCounters{c.memHits - o.memHits, c.memMisses - o.memMisses,
		c.diskRead - o.diskRead, c.diskWritten - o.diskWritten}
}

// layerMetrics turns the traced pass's spans and the timed window's store
// counters into the per-layer metrics. A layer's time is its spans' total
// divided by the ops of its phase: cold computations (op.compute), warm
// requests to gpd (op.served), or cells read from disk (op.disk). Self
// times subtract the child spans the interval contains.
func layerMetrics(spans []span, c storeCounters, timedOps int, driftCells int) map[string]float64 {
	dur := make(map[string]float64) // ms
	cnt := make(map[string]float64)
	attr := make(map[string]float64)
	var servedKey float64
	for _, s := range spans {
		ms := float64(s.Dur) / 1e6
		dur[s.Name] += ms
		cnt[s.Name]++
		for k, v := range s.Attrs {
			attr[s.Name+"."+k] += float64(v)
		}
		if s.Name == "serve.key" && s.Parent > 0 && spans[s.Parent-1].Name == "op.served" {
			servedKey += ms
		}
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	nc, ns, nd, nt := cnt["op.compute"], cnt["op.served"], cnt["op.disk"], float64(timedOps)
	return map[string]float64{
		"minic.parse_ms":              per(dur["minic.parse"], nc),
		"mir.lower_ms":                per(dur["mir.lower"], nc),
		"obfuscate.apply_ms":          per(dur["obfuscate.apply"], nc),
		"codegen.compile_ms":          per(dur["codegen.compile"], nc),
		"codegen.code_kb":             per(attr["codegen.compile.code_bytes"]/1024, nc),
		"gadget.count_ms":             per(dur["gadget.count"], nc),
		"gadget.predecode_ms":         per(dur["gadget.predecode"], nc),
		"gadget.extract_ms":           per(dur["gadget.extract"], nc),
		"gadget.walk_symex_ms":        per(dur["gadget.extract"]-dur["gadget.predecode"], nc),
		"gadget.offsets":              per(attr["gadget.extract.offsets"], nc),
		"gadget.raw_candidates":       per(attr["gadget.extract.raw_candidates"], nc),
		"gadget.pool_raw":             per(attr["gadget.extract.supported"], nc),
		"gadget.supported_ratio":      per(attr["gadget.extract.supported"], attr["gadget.extract.raw_candidates"]),
		"subsume.minimize_ms":         per(dur["subsume.minimize"], nc),
		"subsume.pool_min":            per(attr["subsume.minimize.pool_min"], nc),
		"subsume.queries":             per(attr["subsume.minimize.queries"], nc),
		"subsume.tier_const":          per(attr["subsume.minimize.tier_const"], nc),
		"subsume.tier_eval":           per(attr["subsume.minimize.tier_eval"], nc),
		"subsume.tier_witness":        per(attr["subsume.minimize.tier_witness"], nc),
		"subsume.tier_cache":          per(attr["subsume.minimize.tier_cache"], nc),
		"subsume.tier_blasted":        per(attr["subsume.minimize.tier_blasted"], nc),
		"subsume.canon_drift_cells":   float64(driftCells),
		"planner.search_self_ms":      per(dur["planner.search"]-dur["payload.concretize"]-dur["emu.verify"], nc),
		"planner.expanded":            per(attr["planner.search.expanded"], nc),
		"planner.generated":           per(attr["planner.search.generated"], nc),
		"planner.cache_hit_ratio":     per(attr["planner.search.cache_hits"], attr["planner.search.cache_hits"]+attr["planner.search.cache_misses"]),
		"planner.plans":               per(attr["planner.search.plans"], nc),
		"planner.rejected":            per(attr["planner.search.rejected"], nc),
		"payload.concretize_ms":       per(dur["payload.concretize"], nc),
		"payload.concretize_calls":    per(cnt["payload.concretize"], nc),
		"payload.concretize_failed":   per(attr["payload.concretize.failed"], nc),
		"emu.verify_ms":               per(dur["emu.verify"], nc),
		"emu.verify_calls":            per(cnt["emu.verify"], nc),
		"emu.verify_failed":           per(attr["emu.verify.failed"], nc),
		"pipeline.mem_hits":           per(float64(c.memHits), nt),
		"pipeline.mem_misses":         per(float64(c.memMisses), nt),
		"pipeline.disk_open_ms":       per(dur["pipeline.disk_open"], nd),
		"pipeline.disk_build_read_ms": per(dur["pipeline.disk_build_read"], nd),
		"pipeline.disk_pool_read_ms":  per(dur["pipeline.disk_pool_read"], nd),
		"pipeline.disk_plan_read_ms":  per(dur["pipeline.disk_plan_read"], nd),
		"pipeline.disk_read_kb":       per(float64(c.diskRead)/1024, nt),
		"pipeline.disk_write_kb":      per(float64(c.diskWritten)/1024, nt),
		"serve.key_us":                per(dur["serve.key"]*1e3, cnt["serve.key"]),
		"serve.run_us":                per(dur["serve.run"]*1e3, ns),
		"serve.encode_us":             per(dur["serve.encode"]*1e3, ns),
		"serve.transport_us":          per((dur["serve.roundtrip"]-servedKey-dur["serve.run"]-dur["serve.encode"])*1e3, ns),
	}
}
