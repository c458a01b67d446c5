package pipeline

import "github.com/nofreelunch/gadget-planner/internal/wall"

// Wall buckets account for the suite wall time the per-stage store counters
// cannot see. A fully warm run still spends seconds outside stage
// computations — table rendering, payload verification inside the plan
// stage's closure, emulator replay in the netperf case study, fingerprint
// hashing — and a warm suite's "100% hits yet seconds of wall" floor is
// exactly that unaccounted remainder. Callers wrap those regions with
// TrackWall and the CLIs print WallLine next to Store.StatsLine, turning the
// uncached floor into named numbers.
//
// The registry itself lives in internal/wall (a leaf package) so stages
// below pipeline in the import graph — gadget's predecode pass records the
// "decode" bucket — share the same registry; these aliases keep pipeline
// the API surface its callers already use.

// WallBucketStat is one named region's accumulated cost.
type WallBucketStat = wall.BucketStat

// TrackWall starts timing a named non-stage region and returns the stop
// function; use `defer TrackWall("render")()` around a region. Safe for
// concurrent use; nested and overlapping regions simply accumulate (the
// buckets are a breakdown, not a partition).
func TrackWall(name string) func() { return wall.Track(name) }

// WallStats snapshots the buckets, most expensive first (name-ordered on
// ties, so the rendering is deterministic for fixed durations).
func WallStats() []WallBucketStat { return wall.Stats() }

// ResetWall clears the buckets (benchmarks isolating one pass's breakdown).
func ResetWall() { wall.Reset() }

// WallLine renders the buckets as one stats line, in the style of
// Store.StatsLine: where the run's non-stage wall time went.
func WallLine() string { return wall.Line() }
