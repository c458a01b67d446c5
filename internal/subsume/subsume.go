// Package subsume implements Gadget-Planner's subsumption testing stage
// (paper Section IV-C): the gadget pool is winnowed to one representative
// per semantic equivalence class by checking, for gadget pairs, the paper's
// constraint (1):
//
//	(pre2 -> pre1) && (post1 = post2)
//
// in which case g2 is redundant and removed (g1 has equal effect on a looser
// pre-condition).
//
// A solver query per pair would be quadratic and slow, so candidates are
// first grouped by a structural key (termination, stack delta, clobber set)
// and then by a semantic fingerprint (effects evaluated on deterministic
// pseudo-random environments); only gadgets agreeing on every fingerprint
// reach the SAT-backed equality and implication checks. Structurally
// identical effects (pointer-equal thanks to hash-consing) short-circuit the
// solver entirely.
//
// Buckets are independent, so they are dispatched to Options.Parallelism
// workers sharing one solver, whose verdict cache computes each distinct
// query once. Query formulas are built in a fresh scratch builder per bucket
// (pool expressions are imported into it), which keeps the pool's builder
// strictly read-only during minimization and makes every bucket's verdicts
// independent of worker scheduling — the minimized pool and its Stats are
// identical at any worker count.
package subsume

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/solver"
)

// fingerprints is how many random environments each gadget is evaluated
// on (more = fewer false bucket collisions).
const fingerprints = 4

// maxConflicts bounds each solver query; Unknown results conservatively
// keep both gadgets.
const maxConflicts = 4096

// Options tune the minimization.
type Options struct {
	// Parallelism is how many workers test buckets concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs single-threaded. The result
	// is identical at every worker count.
	Parallelism int
}

// Fingerprint renders the minimization parameters for content-addressed
// artifact keys. Parallelism is excluded — minimized pools are identical at
// every worker count — so the key is a constant. The trailing
// "triage=true" is kept from when the solver's screening tiers were
// switchable: dropping it would re-address every persisted minimize and
// plan artifact.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("fp=%d,conf=%d,triage=true", fingerprints, maxConflicts)
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports what minimization did. SolverQueries splits into
// constant-folded queries, CacheHits and Blasted.
type Stats struct {
	Before        int
	After         int
	RemovedIdent  int   // removed via structural (pointer) identity
	RemovedProved int   // removed via solver-proved subsumption
	SolverQueries int64 // logical SAT queries issued
	CacheHits     int64 // queries answered by the solver verdict cache
	// EvalRefuted and WitnessRefuted are always zero: the solver's
	// concrete-screening and witness-replay tiers are gone. The fields stay
	// because the String layout, the artifact codec and the benchmark's
	// trace read them.
	EvalRefuted    int64
	WitnessRefuted int64
	Blasted        int64 // distinct queries that reached the bit-blaster
	Buckets        int   // fingerprint buckets examined
}

// ReductionFactor returns Before/After (the paper reports an average 2.97x).
func (s Stats) ReductionFactor() float64 {
	if s.After == 0 {
		return 0
	}
	return float64(s.Before) / float64(s.After)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("subsume: %d -> %d (%.2fx; ident=%d proved=%d queries=%d eval=%d wit=%d cached=%d blasted=%d)",
		s.Before, s.After, s.ReductionFactor(), s.RemovedIdent, s.RemovedProved,
		s.SolverQueries, s.EvalRefuted, s.WitnessRefuted, s.CacheHits, s.Blasted)
}

// bucketStats is one bucket's contribution to the aggregate Stats.
type bucketStats struct {
	removedIdent  int
	removedProved int
}

// Minimize returns a new pool containing a copy of one gadget per
// equivalence class, preferring gadgets with weaker pre-conditions, then
// fewer instructions. Neither the input pool's builder nor its gadgets are
// mutated; the output shares the input's builder.
func Minimize(pool *gadget.Pool, opts Options) (*gadget.Pool, Stats) {
	opts = opts.withDefaults()
	stats := Stats{Before: pool.Size()}

	// Group by structural key, then sub-bucket by semantic fingerprint.
	// Bucket contents follow pool order, so each bucket is deterministic;
	// the bucket list order is not, but aggregation below is order-free.
	groups := make(map[string][]*gadget.Gadget)
	for _, g := range pool.Gadgets {
		groups[structuralKey(g)] = append(groups[structuralKey(g)], g)
	}
	var buckets [][]*gadget.Gadget
	var fpr fingerprinter
	for _, group := range groups {
		byFp := make(map[uint64][]*gadget.Gadget)
		for _, g := range group {
			fp := fpr.fingerprint(g, fingerprints)
			byFp[fp] = append(byFp[fp], g)
		}
		for _, bucket := range byFp {
			buckets = append(buckets, bucket)
		}
	}
	stats.Buckets = len(buckets)

	kept := make([][]*gadget.Gadget, len(buckets))
	bstats := make([]bucketStats, len(buckets))
	s := solver.New(solver.Options{MaxConflicts: maxConflicts})
	par.For(opts.Parallelism, len(buckets), func(i int) {
		kept[i] = minimizeBucket(s, buckets[i], &bstats[i])
	})

	for _, bs := range bstats {
		stats.RemovedIdent += bs.removedIdent
		stats.RemovedProved += bs.removedProved
	}
	stats.SolverQueries = s.Queries.Load()
	stats.CacheHits = s.CacheHits.Load()
	stats.Blasted = s.Blasted.Load()

	// The output pool holds copies, because the input's gadgets may be
	// shared with other pools and NewPool renumbers what it is given. The
	// copies keep their input IDs until then, so gadgetLess orders them
	// regardless of bucket processing order.
	var gadgets []*gadget.Gadget
	for _, ks := range kept {
		for _, g := range ks {
			cg := *g
			gadgets = append(gadgets, &cg)
		}
	}
	sort.Slice(gadgets, func(i, j int) bool { return gadgetLess(gadgets[i], gadgets[j]) })
	stats.After = len(gadgets)
	return gadget.NewPool(pool.Builder, pool.ISA, gadgets, pool.Stats), stats
}

// gadgetLess is a total order on distinct gadgets (the extraction-time ID
// breaks any remaining tie), so sorts over them are deterministic.
func gadgetLess(a, b *gadget.Gadget) bool {
	if a.Location != b.Location {
		return a.Location < b.Location
	}
	if a.NumInsts() != b.NumInsts() {
		return a.NumInsts() < b.NumInsts()
	}
	if a.Len != b.Len {
		return a.Len < b.Len
	}
	return a.ID < b.ID
}

// minimizeBucket removes subsumed gadgets within one fingerprint bucket.
// Queries are built in a bucket-local scratch builder so verdicts depend
// only on the bucket's content, never on what the worker processed before.
func minimizeBucket(s *solver.Solver, bucket []*gadget.Gadget, bs *bucketStats) []*gadget.Gadget {
	// Prefer weaker pre-conditions (fewer conjuncts), then shorter gadgets,
	// so the survivor of each class is the cheapest to use.
	sort.Slice(bucket, func(i, j int) bool {
		ci, cj := len(bucket[i].Effect.Conds), len(bucket[j].Effect.Conds)
		if ci != cj {
			return ci < cj
		}
		return gadgetLess(bucket[i], bucket[j])
	})

	scratch := expr.NewBuilder()
	imp := expr.NewImporter(scratch)

	var kept []*gadget.Gadget
	for _, cand := range bucket {
		subsumed := false
		for _, k := range kept {
			ident, eq := equalPost(scratch, imp, s, k, cand)
			if !eq {
				continue
			}
			// Posts equal; k wins if cand's pre-condition implies k's.
			if preImplies(scratch, imp, s, cand, k) {
				subsumed = true
				if ident {
					bs.removedIdent++
				} else {
					bs.removedProved++
				}
				break
			}
		}
		if !subsumed {
			kept = append(kept, cand)
		}
	}
	return kept
}

// equalPost decides post1 == post2. The bool pair is (structurally
// identical, equal). Structural comparisons use pool-node pointer equality;
// residual proof obligations are imported into the scratch builder for the
// solver.
func equalPost(scratch *expr.Builder, imp *expr.Importer, s *solver.Solver, g1, g2 *gadget.Gadget) (bool, bool) {
	e1, e2 := g1.Effect, g2.Effect
	if e1.End != e2.End || e1.StackDelta != e2.StackDelta {
		return false, false
	}
	if len(e1.StackWrites) != len(e2.StackWrites) {
		return false, false
	}

	ident := true
	var pending [][2]*expr.Node
	if len(e1.Regs) != len(e2.Regs) {
		return false, false
	}
	for r := range e1.Regs {
		if e1.Regs[r] == e2.Regs[r] {
			continue
		}
		ident = false
		pending = append(pending, [2]*expr.Node{e1.Regs[r], e2.Regs[r]})
	}
	switch {
	case e1.NextRIP == nil && e2.NextRIP == nil:
	case e1.NextRIP == nil || e2.NextRIP == nil:
		return false, false
	case e1.NextRIP != e2.NextRIP:
		ident = false
		pending = append(pending, [2]*expr.Node{e1.NextRIP, e2.NextRIP})
	}
	for off, w1 := range e1.StackWrites {
		w2, ok := e2.StackWrites[off]
		if !ok || w1.Size != w2.Size {
			return false, false
		}
		if w1.Val != w2.Val {
			ident = false
			pending = append(pending, [2]*expr.Node{w1.Val, w2.Val})
		}
	}
	// Controlled-memory accesses must match structurally (conservative).
	if len(e1.MemReads) != len(e2.MemReads) || len(e1.MemWrites) != len(e2.MemWrites) {
		return false, false
	}
	for i := range e1.MemReads {
		if e1.MemReads[i].Addr != e2.MemReads[i].Addr || e1.MemReads[i].Size != e2.MemReads[i].Size {
			return false, false
		}
	}
	for i := range e1.MemWrites {
		if e1.MemWrites[i].Addr != e2.MemWrites[i].Addr ||
			e1.MemWrites[i].Val != e2.MemWrites[i].Val ||
			e1.MemWrites[i].Size != e2.MemWrites[i].Size {
			return false, false
		}
	}
	if ident {
		return true, true
	}
	for _, p := range pending {
		if !s.EquivalentBV(scratch, imp.Import(p[0]), imp.Import(p[1])) {
			return false, false
		}
	}
	return false, true
}

// preImplies reports whether g2's pre-condition entails g1's (so g1 is usable
// whenever g2 is).
func preImplies(scratch *expr.Builder, imp *expr.Importer, s *solver.Solver, g2, g1 *gadget.Gadget) bool {
	p1 := scratch.AndAll(imp.ImportAll(g1.Effect.Conds))
	p2 := scratch.AndAll(imp.ImportAll(g2.Effect.Conds))
	if p1 == p2 {
		return true
	}
	if v, ok := p1.IsBoolConst(); ok && v {
		return true // g1 unconditionally usable
	}
	return s.Implies(scratch, p2, p1)
}

// structuralKey groups gadgets that could possibly be equivalent.
func structuralKey(g *gadget.Gadget) string {
	key := fmt.Sprintf("%d|%d|%d|%d|%d|", g.Effect.End, g.Effect.StackDelta,
		len(g.Effect.StackWrites), len(g.Effect.MemReads), len(g.Effect.MemWrites))
	for _, r := range g.ClobRegs {
		key += r.String() + ","
	}
	return key
}

// fingerprinter holds fingerprint's scratch, reused across the gadgets of
// one Minimize call: the roots, the offset sort buffer, the variable
// collector, one environment rebound each round, and one evaluation memo
// per round shared by that round's roots, which share most of their
// subterms. It is not safe for concurrent use.
type fingerprinter struct {
	nodes []*expr.Node
	offs  []int64
	vars  expr.VarCollector
	env   expr.Env
	memo  map[uint32]uint64
}

// fingerprint evaluates the gadget's post-condition on k deterministic
// pseudo-random environments and hashes the results. Equal effects always
// fingerprint equal; unequal effects collide only by (unlikely) chance,
// which the solver check then resolves.
func (f *fingerprinter) fingerprint(g *gadget.Gadget, k int) uint64 {
	h := fnv.New64a()
	eff := g.Effect
	nodes := f.nodes[:0]
	for r := range eff.Regs {
		nodes = append(nodes, eff.Regs[r])
	}
	if eff.NextRIP != nil {
		nodes = append(nodes, eff.NextRIP)
	}
	offs := f.offs[:0]
	for off := range eff.StackWrites {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	for _, off := range offs {
		fmt.Fprintf(h, "w%d/%d:", off, eff.StackWrites[off].Size)
		nodes = append(nodes, eff.StackWrites[off].Val)
	}
	for _, a := range eff.MemReads {
		fmt.Fprintf(h, "mr%d:", a.Size)
		nodes = append(nodes, a.Addr)
	}
	for _, a := range eff.MemWrites {
		fmt.Fprintf(h, "mw%d:", a.Size)
		nodes = append(nodes, a.Addr, a.Val)
	}
	f.nodes, f.offs = nodes, offs

	if f.env == nil {
		f.env, f.memo = make(expr.Env), make(map[uint32]uint64)
	}
	clear(f.env)
	vars := f.vars.Collect(nodes...)
	for round := 0; round < k; round++ {
		for _, v := range vars {
			f.env[v.Name] = detValue(v.Name, uint64(round))
		}
		clear(f.memo)
		for _, node := range nodes {
			v, err := expr.EvalMemo(node, f.env, f.memo)
			if err != nil {
				v = 0xDEAD // unreachable: env binds all vars
			}
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// detValue produces a deterministic pseudo-random value from a variable name
// and round number (splitmix64 over an FNV hash).
func detValue(name string, round uint64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a, inline: hash/fnv allocates
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	z := h + (round+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
