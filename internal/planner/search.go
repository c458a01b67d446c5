package planner

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// batchSize is how many frontier nodes one batch pops. It is a fixed
// constant — deliberately NOT derived from Parallelism — because the batch
// boundary is what shapes the search order; workers only split a batch.
const batchSize = 16

// maxSteps bounds gadget instances per plan (chain length). Plan orderings
// are single-word bitsets, so it must stay at most maxOrderSteps-4.
const maxSteps = 10

// Options tune the plan search.
type Options struct {
	// MaxPlans stops the search after this many validated plans. Default 8.
	MaxPlans int
	// MaxNodes bounds search-node expansions. Default 30000. It is the
	// search's only bound besides MaxPlans, so a result never depends on
	// how fast the machine ran.
	MaxNodes int
	// Candidates caps producer candidates tried per open requirement.
	// Default 8.
	Candidates int
	// Validate, if set, is called on each complete plan; only plans it
	// accepts are returned (Algorithm 1's UNSAT filtering, implemented by
	// payload concretization in the core pipeline). It always runs on the
	// coordinator goroutine, in deterministic batch order.
	Validate func(*Plan) bool
	// Parallelism is the number of frontier-expansion workers. 0 = all
	// cores, 1 = single-threaded. Results are byte-identical at every
	// setting: batches are popped, validated, and merged in deterministic
	// order, and batchSize — not the worker count — shapes the search.
	Parallelism int
}

// Fingerprint renders the options' semantic fields canonically (defaults
// applied) for content-addressed artifact keys. Parallelism is excluded —
// plans are identical at every worker count — and so is the Validate
// closure: callers caching search results must key whatever state it
// observes themselves (core's plan stage keys the payload parameters its
// validator is built from).
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	// steps, batch and cache=true are constants, and timeout=30s names the
	// wall-clock bound searches no longer have; the literals keep every
	// stored plan key valid.
	return fmt.Sprintf("plans=%d,nodes=%d,steps=%d,cands=%d,timeout=30s,batch=%d,cache=true",
		o.MaxPlans, o.MaxNodes, maxSteps, o.Candidates, batchSize)
}

func (o Options) withDefaults() Options {
	if o.MaxPlans == 0 {
		o.MaxPlans = 8
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 30000
	}
	if o.Candidates == 0 {
		o.Candidates = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result reports the search outcome.
type Result struct {
	Plans     []*Plan
	Expanded  int
	Generated int
	Rejected  int // complete plans rejected by validation
	// TruncatedSeeds counts syscall anchors dropped by the seed cap — no
	// silent truncation.
	TruncatedSeeds int
	// Batches counts deterministic frontier batches processed.
	Batches int
	// CacheHits/CacheMisses report provider-cache effectiveness.
	CacheHits, CacheMisses int64
}

// StatsLine renders the search counters for stats output, in the style of
// subsume.Stats' triage line.
func (r *Result) StatsLine() string {
	s := fmt.Sprintf("expanded=%d generated=%d batches=%d cache=%d/%d hit/miss",
		r.Expanded, r.Generated, r.Batches, r.CacheHits, r.CacheMisses)
	if r.TruncatedSeeds > 0 {
		s += fmt.Sprintf(" truncatedSeeds=%d", r.TruncatedSeeds)
	}
	return s
}

// node is one frontier state, stored as what its expansion added to its
// parent's plan: every expansion only appends to Steps, Order, Links and
// Demands, and replaces Open by Open[1:] plus new requirements. A seed is a
// node without a parent. materialize rebuilds the full plan.
type node struct {
	parent *node
	g      *gadget.Gadget // the new step's gadget; nil when the link reuses a step
	link   Link           // the new causal link; unset for a seed
	order  [][2]int       // appended to the parent's Order
	demand []SlotDemand   // appended to the parent's Demands
	open   []Requirement  // appended to the parent's Open[1:]
	// reach is the plan's ancestor bitsets in full, one per step: Start
	// plus at most maxSteps gadgets.
	reach [maxSteps + 1]uint64
	// The plan's Open, Demands and Steps lengths, which nodeHeap sorts by.
	nOpen, nDemands, nSteps int32
}

// seedNode records a seed plan, which has exactly the Start step and its
// goal step 1, as a node without a parent. The node takes p's slices.
func seedNode(p *Plan) *node {
	n := &node{g: p.Steps[1].G, order: p.Order, demand: p.Demands, open: p.Open}
	n.record(p)
	return n
}

// record stores p's reach and the lengths nodeHeap sorts by.
func (n *node) record(p *Plan) {
	p.ensureReach()
	copy(n.reach[:], p.reach)
	n.nOpen, n.nDemands, n.nSteps = int32(len(p.Open)), int32(len(p.Demands)), int32(len(p.Steps))
}

// childNode records p, built by one expansion from base, which holds
// parent materialized, as parent's child. It copies what p appended to
// base, so p's buffers may be reused.
func childNode(parent *node, base, p *Plan) *node {
	n := &node{parent: parent, link: p.Links[len(base.Links)],
		order:  slices.Clone(p.Order[len(base.Order):]),
		demand: slices.Clone(p.Demands[len(base.Demands):]),
		open:   slices.Clone(p.Open[len(base.Open)-1:])}
	if len(p.Steps) > len(base.Steps) {
		n.g = p.Steps[len(p.Steps)-1].G
	}
	n.record(p)
	return n
}

// materialize overwrites p with n's plan, reusing p's buffers.
func (n *node) materialize(p *Plan) {
	n.build(p)
	p.reach = append(p.reach[:0], n.reach[:n.nSteps]...)
	p.demandKeys = nil
}

// build is materialize without the per-plan state only the leaf sets.
func (n *node) build(p *Plan) {
	if n.parent == nil {
		p.Steps = append(p.Steps[:0], Step{ID: 0})
		p.Order, p.Links, p.Open, p.Demands = p.Order[:0], p.Links[:0], p.Open[:0], p.Demands[:0]
		p.goalStep = 1
	} else {
		n.parent.build(p)
		p.Open = append(p.Open[:0], p.Open[1:]...)
		p.Links = append(p.Links, n.link)
	}
	if n.g != nil {
		p.Steps = append(p.Steps, Step{ID: len(p.Steps), G: n.g})
	}
	p.Order = append(p.Order, n.order...)
	p.Open = append(p.Open, n.open...)
	p.Demands = append(p.Demands, n.demand...)
}

// nodeHeap orders frontier nodes by the paper's heuristics: fewest open
// pre-conditions, then fewest deferred constraints, then fewest steps.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].nOpen != h[j].nOpen {
		return h[i].nOpen < h[j].nOpen
	}
	if h[i].nDemands != h[j].nDemands {
		return h[i].nDemands < h[j].nDemands
	}
	return h[i].nSteps < h[j].nSteps
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// searchCtx bundles the per-search read-mostly machinery shared by the
// coordinator and its expansion workers.
type searchCtx struct {
	pool  *gadget.Pool
	opts  Options
	cache *providerCache
	idx   *candidateIndex
	keys  *keyInterner
	// visited holds the dedup key of every search state generated so far:
	// structurally identical states (same gadget shapes, same open
	// requirements) are explored once. Only the merge writes it, so
	// expansion workers may read it.
	visited map[string]bool
}

// expandSlot is one batch position's expansion state, reused from batch to
// batch: the expanded node's materialized plan, the scratch plan every
// candidate is built in, key scratch, the successors kept with their dedup
// keys, and the cache-lookup tally.
type expandSlot struct {
	base    Plan
	scratch Plan
	kb      keyBuf
	succs   []*node
	// keys[i] is succs[i]'s dedup key, or "" when a shape or spec of it
	// was not interned yet and the merge must build the key.
	keys []string
	t    tally
}

// Search runs backward partial-order planning over the pool toward the
// goal, returning up to MaxPlans distinct complete plans.
//
// The frontier is processed in deterministic batches: pop the K best nodes
// in heap order, handle complete ones (dedup, validate, accept) serially in
// that order, expand the incomplete ones in parallel workers, then merge
// the successors back into the heap in pop order. Because batch boundaries,
// validation order, and merge order depend only on batchSize — never on
// Parallelism — the accepted plans, counters, and diversity ranking are
// byte-identical at any worker count.
func Search(pool *gadget.Pool, goal Goal, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{}

	sc := &searchCtx{
		pool:    pool,
		opts:    opts,
		cache:   newProviderCache(pool),
		idx:     newCandidateIndex(pool),
		keys:    newKeyInterner(pool),
		visited: make(map[string]bool),
	}

	var total tally
	var q nodeHeap
	seedPlans, truncated := seeds(sc, goal, &total)
	res.TruncatedSeeds = truncated
	for _, p := range seedPlans {
		// Intern the seed's shapes and specs, so workers can key its
		// successors.
		sc.keys.encode(&sc.keys.kb, p, true)
		heap.Push(&q, seedNode(p))
	}

	found := make(map[string]bool)
	// Diversity pressure: gadgets already appearing in accepted plans are
	// deprioritized as producers, pushing the search toward structurally
	// different chains (the paper: "Gadget-Planner does not stop when
	// finding one gadget chain; it keeps searching for more diverse gadget
	// chains").
	uses := make(map[int]int)

	type job struct {
		n      *node
		cands  []*gadget.Gadget
		specID uint32 // interned form of the plan's Open[0].Spec
	}
	var jobs []job
	slots := make([]expandSlot, batchSize)
	// tmp is the coordinator's scratch for plans it keys or copies out.
	var tmp Plan
	// shaped records the registers whose candidates' shapes are interned.
	shaped := make(map[isa.Reg]bool)

	done := false
	for q.Len() > 0 && res.Expanded < opts.MaxNodes && !done {
		k := batchSize
		if k > q.Len() {
			k = q.Len()
		}
		if rem := opts.MaxNodes - res.Expanded; k > rem {
			k = rem
		}
		res.Batches++

		// Phase 1 (serial): pop the batch in heap order. Complete nodes are
		// materialized, deduped, validated, and accepted right here, in pop
		// order, so the uses-based diversity ranking the rest of the batch
		// expands under is reproducible. Only a new signature's plan is
		// copied out of tmp, into a fresh exact-size Plan.
		jobs = jobs[:0]
		usesChanged := false
		for i := 0; i < k; i++ {
			n := heap.Pop(&q).(*node)
			res.Expanded++
			if n.nOpen == 0 {
				n.materialize(&tmp)
				sig := sc.keys.key(&tmp)
				if found[sig] {
					continue
				}
				p := &Plan{}
				p.copyFrom(&tmp, nil)
				if opts.Validate != nil && !opts.Validate(p) {
					res.Rejected++
					continue
				}
				found[sig] = true
				res.Plans = append(res.Plans, p)
				for _, g := range p.Chain() {
					uses[g.ID]++
				}
				usesChanged = true
				if len(res.Plans) >= opts.MaxPlans {
					done = true
					break
				}
				continue
			}
			jobs = append(jobs, job{n: n})
		}
		if done || len(jobs) == 0 {
			continue
		}
		if usesChanged {
			sc.idx.bumpUses()
		}
		// Each node is materialized into its slot's base plan, and
		// candidate lists, spec IDs and candidate shapes are resolved
		// serially (the index caches its diversity re-rank per register,
		// the interner owns the shape and spec tables); workers receive
		// ready plans, slices and dense keys.
		for i := range jobs {
			p := &slots[i].base
			jobs[i].n.materialize(p)
			jobs[i].cands = nil
			jobs[i].specID = sc.keys.specOf(p.Open[0].Spec)
			if p.NumGadgets() < maxSteps {
				reg := p.Open[0].Reg
				jobs[i].cands = sc.idx.candidatesFor(reg, uses)
				// Every re-rank permutes the same base list, so interning
				// one order's shapes covers them all.
				if !shaped[reg] {
					for _, g := range jobs[i].cands {
						sc.keys.shapeOf(g)
					}
					shaped[reg] = true
				}
			}
		}

		// Phase 2 (parallel): expand into index-addressed slots.
		par.For(opts.Parallelism, len(jobs), func(i int) {
			expand(sc, jobs[i].n, jobs[i].cands, jobs[i].specID, &slots[i])
		})

		// Phase 3 (serial): merge successors in batch order. Workers
		// dropped every successor whose key was visited before the batch
		// or kept earlier by the same job; what is left can still repeat
		// another job's.
		for i := range jobs {
			sl := &slots[i]
			total.lookups += sl.t.lookups
			for j, succ := range sl.succs {
				key := sl.keys[j]
				if key == "" {
					succ.materialize(&tmp)
					key = sc.keys.key(&tmp)
				}
				if sc.visited[key] {
					continue
				}
				sc.visited[key] = true
				res.Generated++
				heap.Push(&q, succ)
			}
		}
	}
	res.CacheMisses = sc.cache.misses.Load()
	res.CacheHits = total.lookups - res.CacheMisses
	return res
}

// seeds builds one initial plan per usable syscall gadget (the backward
// search starts from the attack's final state). The second result counts
// anchors dropped by the seed cap.
func seeds(sc *searchCtx, goal Goal, t *tally) ([]*Plan, int) {
	pool := sc.pool
	// Deterministic goal-register order.
	regs := make([]isa.Reg, 0, len(goal.Regs))
	for r := range goal.Regs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	// Prefer simple syscall gadgets.
	anchors := append([]*gadget.Gadget(nil), pool.Syscalls...)
	sort.Slice(anchors, func(i, j int) bool {
		if len(anchors[i].Effect.Conds) != len(anchors[j].Effect.Conds) {
			return len(anchors[i].Effect.Conds) < len(anchors[j].Effect.Conds)
		}
		if anchors[i].NumInsts() != anchors[j].NumInsts() {
			return anchors[i].NumInsts() < anchors[j].NumInsts()
		}
		return anchors[i].Location < anchors[j].Location
	})
	// Seed every anchor: the most useful ones (libc-style syscall wrappers
	// that set argument registers internally) are long and would be crowded
	// out by any shortest-first cap. Unworkable seeds die cheaply when a
	// requirement has no producers.
	truncated := 0
	if len(anchors) > 64 {
		truncated = len(anchors) - 64
		anchors = anchors[:64]
	}

	var out []*Plan
	for _, sg := range anchors {
		selfReqs, usable := sc.cache.stepReqsFor(sg, t)
		if !usable {
			continue
		}
		p := &Plan{
			Steps:    []Step{{ID: 0}, {ID: 1, G: sg}},
			goalStep: 1,
		}
		p.addOrder(0, 1)
		ok := true
		for _, r := range regs {
			spec := goal.Regs[r]
			if int(r) >= len(sg.Effect.Regs) {
				ok = false // register unknown to this backend
				break
			}
			e := sg.Effect.Regs[r]
			if src, ok := symex.EntryReg(e); ok && src == r {
				// Unchanged by the syscall gadget: require at its entry.
				p.Open = append(p.Open, Requirement{Step: 1, Reg: r, Spec: spec})
				continue
			}
			pr, provided := sc.cache.providesFor(sg, r, spec, sc.keys.specOf(spec), t)
			if !provided {
				ok = false
				break
			}
			for _, rq := range pr.entryReqs {
				p.Open = append(p.Open, Requirement{Step: 1, Reg: rq.reg, Spec: rq.spec})
			}
			for _, d := range pr.demands {
				d.Step = 1
				p.addDemand(d)
			}
		}
		if !ok {
			continue
		}
		for _, rq := range selfReqs {
			p.Open = append(p.Open, Requirement{Step: 1, Reg: rq.reg, Spec: rq.spec})
		}
		out = append(out, p)
	}
	return out, truncated
}

// keptHook, when set, is called with every successor expand keeps and the
// scratch plan it was recorded from. It is nil outside tests.
var keptHook func(succ *node, scratch *Plan)

// expand generates successor nodes of n, whose plan sl.base holds, for the
// plan's first open requirement into sl.succs. It is called from expansion
// workers: everything it touches is either owned by the task (n, sl) or
// safe for concurrent reads (the pool, the candidate slice, the provider
// cache, and the key interner and visited, which only the coordinator
// writes). Every candidate is built in the slot's scratch plan. One that
// finishLink accepts is recorded as a child node, holding only what the
// candidate added to sl.base, and only if its dedup key is new: not visited
// before the batch and not kept earlier in this expansion. An accepted
// new-gadget candidate counts against the Candidates cap either way.
func expand(sc *searchCtx, n *node, cands []*gadget.Gadget, specID uint32, sl *expandSlot) {
	p := &sl.base
	req := p.Open[0]
	rest := p.Open[1:]
	sl.succs, sl.keys, sl.t = sl.succs[:0], sl.keys[:0], tally{}
	t := &sl.t
	scratch := &sl.scratch
	keep := func() {
		ks := ""
		if key, ok := sc.keys.encode(&sl.kb, scratch, false); ok {
			if sc.visited[string(key)] {
				return
			}
			for _, k := range sl.keys {
				if k == string(key) {
					return
				}
			}
			ks = string(key)
		}
		succ := childNode(n, p, scratch)
		if keptHook != nil {
			keptHook(succ, scratch)
		}
		sl.succs = append(sl.succs, succ)
		sl.keys = append(sl.keys, ks)
	}

	// Candidate 1: reuse an existing step that already supplies this value.
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.G == nil || s.ID == req.Step {
			continue
		}
		if s.ID != p.goalStep && (s.G.Effect.End == symex.EndSyscall || s.G.Effect.StackDelta < 0) {
			continue
		}
		if p.orderedBefore(req.Step, s.ID) {
			continue // cannot be ordered before the consumer
		}
		pr, ok := provideResult{}, true
		if sp := linkedSpec(p, s.ID, req.Reg); sp != nil {
			ok = equalSpec(*sp, req.Spec) // else committed to a different value
		} else {
			pr, ok = sc.cache.providesFor(s.G, req.Reg, req.Spec, specID, t)
		}
		if !ok {
			continue
		}
		scratch.copyFrom(p, rest)
		if finishLink(scratch, req, s.ID, pr) {
			keep()
		}
	}

	// Candidate 2: instantiate a new gadget step.
	taken := 0
	for _, g := range cands {
		if taken >= sc.opts.Candidates {
			break
		}
		pr, ok := sc.cache.providesFor(g, req.Reg, req.Spec, specID, t)
		if !ok {
			continue
		}
		selfReqs, usable := sc.cache.stepReqsFor(g, t)
		if !usable {
			continue
		}
		scratch.copyFrom(p, rest)
		id := len(scratch.Steps)
		scratch.Steps = append(scratch.Steps, Step{ID: id, G: g})
		scratch.addOrder(0, id)
		// The syscall fires last; every other gadget precedes it.
		if id != scratch.goalStep {
			scratch.addOrder(id, scratch.goalStep)
		}
		for _, rq := range selfReqs {
			scratch.Open = append(scratch.Open, Requirement{Step: id, Reg: rq.reg, Spec: rq.spec})
		}
		if finishLink(scratch, req, id, pr) {
			keep()
			taken++
		}
	}
}

// linkedSpec returns the spec a step is already committed to supply for reg.
func linkedSpec(p *Plan, step int, reg isa.Reg) *ValueSpec {
	for i := range p.Links {
		if p.Links[i].Producer == step && p.Links[i].Reg == reg {
			return &p.Links[i].Spec
		}
	}
	return nil
}

// finishLink installs the causal link and the producer's own new
// requirements and demands, then resolves threats, reporting whether succ
// came out a consistent plan.
func finishLink(succ *Plan, req Requirement, producer int, pr provideResult) bool {
	for _, rq := range pr.entryReqs {
		succ.Open = append(succ.Open, Requirement{Step: producer, Reg: rq.reg, Spec: rq.spec})
	}
	for _, d := range pr.demands {
		d.Step = producer
		succ.addDemand(d)
	}
	if !succ.addOrder(producer, req.Step) {
		return false
	}
	link := Link{Producer: producer, Consumer: req.Step, Reg: req.Reg, Spec: req.Spec}
	succ.Links = append(succ.Links, link)
	return resolveThreats(succ, producer, len(succ.Links)-1)
}

// firstUnresolvedThreat finds a step that clobbers some link's register and
// could be ordered between that link's producer and consumer.
//
// Every frontier plan is threat-free (seeds carry no links, and expanded
// plans come out of resolveThreats clean), and adding ordering constraints
// can only resolve threats, never create them — so after finishLink the
// only pairs that can be threatened involve the link's producer step or the
// newly installed link at index newLink. The scan visits exactly those
// pairs, in the same step-major, link-minor order a full scan would use, so
// it returns the same threat a full scan would find first.
func firstUnresolvedThreat(p *Plan, producer, newLink int) (threat int, link Link, found bool) {
	threatened := func(t *Step, l Link) bool {
		if t.ID == l.Producer || t.ID == l.Consumer {
			return false
		}
		if !clobbers(t.G, l.Reg) {
			return false
		}
		if p.orderedBefore(t.ID, l.Producer) || p.orderedBefore(l.Consumer, t.ID) {
			return false // already safe
		}
		return true
	}
	for i := range p.Steps {
		t := &p.Steps[i]
		if t.G == nil {
			continue
		}
		if t.ID == producer {
			for _, l := range p.Links {
				if threatened(t, l) {
					return t.ID, l, true
				}
			}
		} else if l := p.Links[newLink]; threatened(t, l) {
			return t.ID, l, true
		}
	}
	return 0, Link{}, false
}

// resolveThreats protects every causal link by ordering each threatening
// step before the link's producer (demotion) or after its consumer
// (promotion), searching depth-first, demotion first, in place: a failed
// branch is undone by truncating Order and restoring reach, so on false p's
// ordering is exactly as it was on entry. producer and newLink scope the
// threat scan to the pairs the enclosing finishLink could have endangered
// (see firstUnresolvedThreat).
//
// Only the first consistent resolution is kept. Resolution adds nothing but
// Order edges, and the search's dedup key covers only step shapes and open
// requirements, so any further resolution would share the first one's key
// and be dropped when the batch's successors are merged.
func resolveThreats(p *Plan, producer, newLink int) bool {
	t, l, found := firstUnresolvedThreat(p, producer, newLink)
	if !found {
		return true
	}
	var reach [maxOrderSteps]uint64
	copy(reach[:], p.reach)
	n := len(p.Order)
	for _, e := range [2][2]int{{t, l.Producer}, {l.Consumer, t}} {
		if p.addOrder(e[0], e[1]) && resolveThreats(p, producer, newLink) {
			return true
		}
		p.Order = p.Order[:n]
		copy(p.reach, reach[:])
	}
	return false
}
