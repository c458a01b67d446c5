package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

// maxRequestBody bounds a /run request body (inline sources are small;
// marshaled binaries are at most a few MB).
const maxRequestBody = 64 << 20

// Server is the analysis service: one warm shared store serving N clients.
// Each request runs under its own context; concurrent requests that need
// the same artifact compute it once through the store's per-stage
// singleflight, and the store's gate bounds per-stage compute concurrency.
type Server struct {
	store *pipeline.Store
	par   int
	start time.Time

	requests  atomic.Int64
	inflight  atomic.Int64
	completed atomic.Int64
	errored   atomic.Int64
	draining  atomic.Bool
}

// NewServer returns a service over store. parallelism is forwarded to each
// request's pipeline (0 = all cores); bound the per-stage compute pools by
// attaching a pipeline.Gate to the store (Store.WithGate).
func NewServer(store *pipeline.Store, parallelism int) *Server {
	return &Server{
		store: store,
		par:   parallelism,
		start: time.Now(),
	}
}

// SetDraining flips drain mode: new /run requests are refused with 503
// while in-flight ones run to completion (http.Server.Shutdown provides
// the wait). Load balancers see the flip on /healthz.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the service's HTTP handler: POST /run (JSONL stream),
// GET /stats, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// jsonLine is one line of a /run response: {"event":"stage",...} per
// finished stage, then exactly one of {"event":"result","result":{...}} or
// {"event":"error","error":"..."}. The stage fields are embedded through a
// pointer, so a final line carries none of them.
type jsonLine struct {
	Event string `json:"event"`
	*StageEvent
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
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
	rr, err := req.resolve()
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
	progress := func(ev StageEvent) {
		enc.Encode(jsonLine{Event: "stage", StageEvent: &ev})
		flush()
	}
	// A dropped client cancels its own remaining stages; a stage it already
	// entered still finishes for every request waiting on it (DoCtx).
	res, err := s.runSafe(r.Context(), rr, progress)
	s.writeFinal(enc, res, err)
	flush()
}

// runSafe runs a resolved request and turns a panic into its error, so one
// bad request never kills the server.
func (s *Server) runSafe(ctx context.Context, rr *resolved, progress Progress) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: request panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return run(ctx, s.store, s.par, rr, progress)
}

func (s *Server) writeFinal(enc *json.Encoder, res *Result, err error) {
	if err != nil {
		s.errored.Add(1)
		enc.Encode(jsonLine{Event: "error", Error: err.Error()})
		return
	}
	s.completed.Add(1)
	enc.Encode(jsonLine{Event: "result", Result: res})
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

// Stats is the /stats document: request-level counters, per-stage hit
// rates (the computed-once evidence is each stage's miss count), pool
// depths, and store-tier state.
type Stats struct {
	UptimeSeconds    float64             `json:"uptime_seconds"`
	Requests         int64               `json:"requests"`
	InFlightRequests int64               `json:"inflight_requests"`
	Completed        int64               `json:"completed_requests"`
	Errors           int64               `json:"request_errors"`
	Draining         bool                `json:"draining"`
	Parallelism      int                 `json:"parallelism"`
	Stages           []StageStat         `json:"stages"`
	MemEntries       int                 `json:"mem_entries"`
	MemEvictions     int64               `json:"mem_evictions"`
	Disk             *pipeline.DiskStats `json:"disk,omitempty"`
	StoreLine        string              `json:"store_line"`
}

// Snapshot collects the current Stats.
func (s *Server) Snapshot() Stats {
	st := Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests.Load(),
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
