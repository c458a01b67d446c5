package planner

import (
	"sync/atomic"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// providerCache memoizes the planner's symbolic derivations for one search:
// provides() keyed by (gadget ID, reg, interned ValueSpec) and
// stepEntryReqs() keyed by gadget ID. Both underlying functions are pure in
// (gadget, reg, spec) — they only read the effect DAG, and never touch the
// pool's builder — so cached and uncached answers are identical and the
// cache is safe to share across expansion workers.
//
// Layout: one slot per gadget ID. provides() entries live in a per-gadget
// copy-on-write map behind an atomic pointer — lookups are a plain map read
// (no locks, no string hashing), and the rare miss republishes the small
// map with the new entry. stepEntryReqs() has exactly one entry per gadget,
// a single atomic pointer.
//
// Counter determinism under parallelism: workers count lookups in per-task
// tallies (the multiset of lookups is fixed by the batch-deterministic
// search order), and a miss is counted only by the goroutine whose
// compare-and-swap actually published the entry — so misses equal the
// number of distinct keys ever looked up, and hits = lookups − misses,
// however racing workers interleave.
type providerCache struct {
	prov   []atomic.Pointer[provMap]
	steps  []atomic.Pointer[stepReqEntry]
	misses atomic.Int64
}

// provMap holds one gadget's provides() results, keyed by
// reg<<32 | interned spec ID. Published maps are never mutated.
type provMap map[uint64]provEntry

type provEntry struct {
	pr provideResult
	ok bool
}

type stepReqEntry struct {
	reqs []regReq
	ok   bool
}

// tally accumulates per-task cache lookup counts; the coordinator sums them
// deterministically after each batch.
type tally struct {
	lookups int64
}

func newProviderCache(pool *gadget.Pool) *providerCache {
	// Slots are indexed by gadget ID, which is the gadget's pool position.
	return &providerCache{
		prov:  make([]atomic.Pointer[provMap], len(pool.Gadgets)),
		steps: make([]atomic.Pointer[stepReqEntry], len(pool.Gadgets)),
	}
}

// providesFor is the memoized provides(). specID must be the interned form
// of spec (keyInterner.specOf, resolved on the coordinator). Cached entries
// are shared read-only: callers copy entryReqs/demands values before
// mutating them.
func (c *providerCache) providesFor(g *gadget.Gadget, reg isa.Reg, spec ValueSpec, specID uint32, t *tally) (provideResult, bool) {
	t.lookups++
	k := uint64(reg)<<32 | uint64(specID)
	slot := &c.prov[g.ID]
	if m := slot.Load(); m != nil {
		if e, ok := (*m)[k]; ok {
			return e.pr, e.ok
		}
	}
	pr, ok := provides(g, reg, spec)
	for {
		cur := slot.Load()
		if cur != nil {
			if e, raced := (*cur)[k]; raced {
				// Another worker published this key first: a hit, not a miss.
				return e.pr, e.ok
			}
		}
		nm := make(provMap, 4)
		if cur != nil {
			for kk, vv := range *cur {
				nm[kk] = vv
			}
		}
		nm[k] = provEntry{pr: pr, ok: ok}
		if slot.CompareAndSwap(cur, &nm) {
			c.misses.Add(1)
			return pr, ok
		}
	}
}

// stepReqsFor is the memoized stepEntryReqs().
func (c *providerCache) stepReqsFor(g *gadget.Gadget, t *tally) ([]regReq, bool) {
	t.lookups++
	slot := &c.steps[g.ID]
	if e := slot.Load(); e != nil {
		return e.reqs, e.ok
	}
	reqs, ok := stepEntryReqs(g)
	if slot.CompareAndSwap(nil, &stepReqEntry{reqs: reqs, ok: ok}) {
		c.misses.Add(1)
		return reqs, ok
	}
	e := slot.Load()
	return e.reqs, e.ok
}
