package solver

import (
	"encoding/binary"

	"github.com/nofreelunch/gadget-planner/internal/expr"
)

// The verdict cache memoizes Sat/Unsat/Unknown outcomes keyed by a canonical
// serialization of the query DAG. Keys are structural, not pointer-based, so
// logically identical queries hit the cache even when their nodes were built
// in different (e.g. per-bucket scratch) builders. A key also fixes the CNF
// the blaster emits — lowering follows DAG structure only — so its verdict,
// Unknown included, is a deterministic function of the key and the Solver's
// fixed MaxConflicts budget, and caching it is sound.
//
// The cache is shared by every caller of a Solver and computes each key
// once: the first querier blasts it, and concurrent queriers of the same key
// wait for that result. Blasted therefore equals the number of distinct
// non-constant verdict queries, and CacheHits the rest, however the callers
// are scheduled. The cache is unbounded: a Solver lives for one
// subsume.Minimize call or one payload.Concretizer, never longer.

// verdict is one cache entry. r is valid once done is closed.
type verdict struct {
	done chan struct{}
	r    Result
}

// cacheKey canonically serializes the conjunction query. Nodes are numbered
// in first-visit (post-order) order and each is encoded with its kind,
// width, payload, and child indices — an injective encoding of the DAG, so
// distinct queries can never collide.
func cacheKey(formulas []*expr.Node) string {
	var buf []byte
	idx := make(map[*expr.Node]uint64)
	var visit func(n *expr.Node) uint64
	visit = func(n *expr.Node) uint64 {
		if i, ok := idx[n]; ok {
			return i
		}
		var args [3]uint64
		for i, a := range n.Args {
			args[i] = visit(a)
		}
		i := uint64(len(idx))
		idx[n] = i
		buf = append(buf, byte(n.Kind), n.Width, byte(len(n.Args)))
		buf = binary.AppendUvarint(buf, n.Val)
		buf = binary.AppendUvarint(buf, uint64(len(n.Name)))
		buf = append(buf, n.Name...)
		for j := 0; j < len(n.Args); j++ {
			buf = binary.AppendUvarint(buf, args[j])
		}
		return i
	}
	for _, f := range formulas {
		root := visit(f)
		buf = append(buf, 0xFF)
		buf = binary.AppendUvarint(buf, root)
	}
	return string(buf)
}

// checkVerdict decides the conjunction like Check but without producing a
// model: constant folding, then the shared verdict cache, then the
// bit-blaster. Every call counts toward Queries, so the logical query count
// is independent of cache state.
func (s *Solver) checkVerdict(formulas ...*expr.Node) Result {
	s.Queries.Add(1)
	if r, ok := constVerdict(formulas); ok {
		return r
	}

	key := cacheKey(formulas)
	s.mu.Lock()
	v, hit := s.cache[key]
	if !hit {
		v = &verdict{done: make(chan struct{})}
		s.cache[key] = v
	}
	s.mu.Unlock()
	if hit {
		s.CacheHits.Add(1)
		<-v.done
		return v.r
	}
	// Closing done on every exit keeps waiters from hanging should the
	// blaster panic; they then read Unknown, the no-proof verdict.
	defer close(v.done)
	v.r, _ = s.solve(formulas)
	return v.r
}
