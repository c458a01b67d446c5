// Package wall is the process-global wall-time bucket registry. Buckets
// account for suite wall time the per-stage store counters cannot see —
// table rendering, payload verification, emulator replay, fingerprint
// hashing, and (since the predecode overhaul) section decoding. Regions
// spanning several packages record into one registry, and the CLIs print
// one stats line next to the store counters.
//
// The registry lives in its own leaf package because both sides of the
// pipeline record into it: internal/pipeline records key hashing, while
// internal/gadget — which pipeline itself imports — records predecode
// time. A process-global singleton keeps
// the consumer a single per-process stats line, exactly like the stage
// counters a Store accumulates per run.
package wall

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

var (
	mu      sync.Mutex
	buckets = map[string]*bucket{}
)

type bucket struct {
	total time.Duration
	count int64
}

// Track starts timing a named region and returns the stop function; use
// `defer wall.Track("render")()` around a region. Safe for concurrent use;
// nested and overlapping regions simply accumulate (the buckets are a
// breakdown, not a partition).
func Track(name string) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		mu.Lock()
		b := buckets[name]
		if b == nil {
			b = &bucket{}
			buckets[name] = b
		}
		b.total += d
		b.count++
		mu.Unlock()
	}
}

// BucketStat is one named region's accumulated cost.
type BucketStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Stats snapshots the buckets, most expensive first (name-ordered on ties,
// so the rendering is deterministic for fixed durations).
func Stats() []BucketStat {
	mu.Lock()
	defer mu.Unlock()
	out := make([]BucketStat, 0, len(buckets))
	for name, b := range buckets {
		out = append(out, BucketStat{Name: name, Seconds: b.total.Seconds(), Count: b.count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Reset clears the buckets (benchmarks isolating one pass's breakdown).
func Reset() {
	mu.Lock()
	buckets = map[string]*bucket{}
	mu.Unlock()
}

// Line renders the buckets as one stats line: where the run's non-stage
// wall time went.
func Line() string {
	stats := Stats()
	if len(stats) == 0 {
		return "wall: no tracked regions"
	}
	var sb strings.Builder
	sb.WriteString("wall:")
	for _, b := range stats {
		fmt.Fprintf(&sb, " %s=%.2fs/%d", b.Name, b.Seconds, b.Count)
	}
	sb.WriteString(" time/calls")
	return sb.String()
}
