package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

// maxRequestBody bounds a /run request body (inline sources are small;
// marshaled binaries are at most a few MB).
const maxRequestBody = 64 << 20

// Server is the analysis service: one warm shared store serving N clients.
// Concurrent identical requests collapse onto one execution (the joiners
// replay the winner's progress and share its result), partial overlaps
// dedup through the store's per-stage singleflight, and the store's gate
// bounds per-stage compute concurrency.
type Server struct {
	store *pipeline.Store
	par   int
	start time.Time

	// BaseContext, if set before serving, scopes request computations.
	// Deliberately not the per-request context: the winner of a
	// cross-client singleflight computes a shared artifact, so a dropped
	// client must not cancel work other clients are waiting on. A forced
	// server shutdown cancels it.
	BaseContext context.Context

	mu    sync.Mutex
	calls map[string]*call

	requests   atomic.Int64
	dedupJoins atomic.Int64
	inflight   atomic.Int64
	completed  atomic.Int64
	errored    atomic.Int64
	draining   atomic.Bool
}

// call is one in-flight request execution, shared by every client that
// submitted the same canonical key while it ran.
type call struct {
	mu     sync.Mutex
	events []StageEvent
	done   chan struct{}
	result *Result
	err    error
}

// NewServer returns a service over store. parallelism is forwarded to each
// request's pipeline (0 = all cores); bound the per-stage compute pools by
// attaching a pipeline.Gate to the store (Store.WithGate).
func NewServer(store *pipeline.Store, parallelism int) *Server {
	return &Server{
		store: store,
		par:   parallelism,
		start: time.Now(),
		calls: make(map[string]*call),
	}
}

// SetDraining flips drain mode: new /run requests are refused with 503
// while in-flight ones run to completion (http.Server.Shutdown provides
// the wait). Load balancers see the flip on /healthz.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler: POST /run (JSONL stream),
// GET /stats, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) baseContext() context.Context {
	if s.BaseContext != nil {
		return s.BaseContext
	}
	return context.Background()
}

// jsonl line shapes: {"event":"stage",...} per finished stage, then
// exactly one of {"event":"result","result":{...}} or
// {"event":"error","error":"..."}.
type stageLine struct {
	Event string `json:"event"`
	StageEvent
}

type finalLine struct {
	Event  string  `json:"event"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// wallLine carries the serving process's wall-bucket snapshot, streamed
// once per response just before the final line (timing telemetry — never
// part of the canonical result).
type wallLine struct {
	Event   string                    `json:"event"`
	Buckets []pipeline.WallBucketStat `json:"buckets"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	key, err := req.Key()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Cross-request singleflight: the first submitter of a key becomes the
	// winner and executes; everyone else joins its call.
	s.mu.Lock()
	c, joined := s.calls[key]
	if !joined {
		c = &call{done: make(chan struct{})}
		s.calls[key] = c
	}
	s.mu.Unlock()

	if joined {
		s.dedupJoins.Add(1)
		select {
		case <-c.done:
		case <-r.Context().Done():
			return // client gone; the winner keeps computing
		}
		for _, ev := range c.events {
			enc.Encode(stageLine{Event: "stage", StageEvent: ev})
		}
		enc.Encode(wallLine{Event: "wall", Buckets: pipeline.WallStats()})
		s.writeFinal(enc, c.result, c.err)
		flush()
		return
	}

	// Winner: execute under the server's lifetime context and stream
	// progress live. Events are also recorded on the call for joiners.
	progress := func(ev StageEvent) {
		c.mu.Lock()
		c.events = append(c.events, ev)
		c.mu.Unlock()
		enc.Encode(stageLine{Event: "stage", StageEvent: ev})
		flush()
	}
	res, err := s.runCall(key, c, req, progress)
	enc.Encode(wallLine{Event: "wall", Buckets: pipeline.WallStats()})
	s.writeFinal(enc, res, err)
	flush()
}

// runCall executes the winner's request and then publishes the outcome to
// the call's joiners and releases the call, on every exit path: a panic in
// Run becomes the call's error, so joiners never wait on a call that cannot
// finish and later identical requests start afresh.
func (s *Server) runCall(key string, c *call, req Request, progress Progress) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: request panicked: %v\n%s", p, debug.Stack())
		}
		c.result, c.err = res, err
		s.mu.Lock()
		delete(s.calls, key)
		s.mu.Unlock()
		close(c.done)
	}()
	return Run(s.baseContext(), s.store, s.par, req, progress)
}

func (s *Server) writeFinal(enc *json.Encoder, res *Result, err error) {
	if err != nil {
		s.errored.Add(1)
		enc.Encode(finalLine{Event: "error", Error: err.Error()})
		return
	}
	s.completed.Add(1)
	enc.Encode(finalLine{Event: "result", Result: res})
}

// StageStat merges one stage's store counters with its gate-pool state —
// the per-stage row of /stats.
type StageStat struct {
	pipeline.StageStats
	Limit    int   `json:"limit,omitempty"`
	InFlight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Admitted int64 `json:"admitted,omitempty"`
}

// Stats is the /stats document: request-level counters (the cross-request
// singleflight's computed-once evidence is Requests vs DedupJoins plus the
// per-stage miss counts), per-stage hit rates, pool depths, and store-tier
// state.
type Stats struct {
	UptimeSeconds    float64             `json:"uptime_seconds"`
	Requests         int64               `json:"requests"`
	DedupJoins       int64               `json:"dedup_joins"`
	InFlightRequests int64               `json:"inflight_requests"`
	Completed        int64               `json:"completed_requests"`
	Errors           int64               `json:"request_errors"`
	Draining         bool                `json:"draining"`
	Parallelism      int                 `json:"parallelism"`
	Stages           []StageStat         `json:"stages"`
	MemEntries       int                 `json:"mem_entries"`
	MemEvictions     int64               `json:"mem_evictions"`
	Disk             *pipeline.DiskStats `json:"disk,omitempty"`
	// Wall is where the process's non-stage wall time went.
	Wall      []pipeline.WallBucketStat `json:"wall,omitempty"`
	StoreLine string                    `json:"store_line"`
}

// Snapshot collects the current Stats.
func (s *Server) Snapshot() Stats {
	st := Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests.Load(),
		DedupJoins:       s.dedupJoins.Load(),
		InFlightRequests: s.inflight.Load(),
		Completed:        s.completed.Load(),
		Errors:           s.errored.Load(),
		Draining:         s.draining.Load(),
		Parallelism:      s.par,
		MemEntries:       s.store.MemEntries(),
		MemEvictions:     s.store.MemEvictions(),
		StoreLine:        s.store.StatsLine(),
	}
	gates := make(map[string]pipeline.GateStats)
	for _, g := range s.store.Gate().Stats() {
		gates[g.Stage] = g
	}
	for _, ss := range s.store.Stats() {
		row := StageStat{StageStats: ss}
		if g, ok := gates[ss.Stage]; ok {
			row.Limit, row.InFlight, row.Queued, row.Admitted =
				g.Limit, g.InFlight, g.Queued, g.Admitted
		}
		st.Stages = append(st.Stages, row)
	}
	if s.store.Disk() != nil {
		ds := s.store.DiskStats()
		st.Disk = &ds
	}
	st.Wall = pipeline.WallStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
