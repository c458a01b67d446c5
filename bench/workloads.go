package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds is the timed window: whole passes run until it has elapsed,
	// and always at least one.
	Seconds float64
	// Trace adds the traced per-layer pass after the timed window.
	Trace bool
	// Setups is how many times the workload is set up; setup_s is the
	// median and the timed window runs on the last set-up.
	Setups int
	// CorpusPrograms is how many generated programs corpus-count uses.
	CorpusPrograms int
	// WorkDir holds the run's disk caches and socket.
	WorkDir string
}

// loadClients is served-warm's closed-loop client count: one connection
// each, both in this process.
const loadClients = 2

// workload is one input set and the way a run drives it: set-up, timed
// passes, payload verification and, when tracing, the traced pass.
type workload struct {
	cells func(runConfig) []cell
	run   func(*runner) error
}

var workloads = map[string]workload{
	"netperf-cold": {func(runConfig) []cell { return netperfCells() }, netperfCold},
	"corpus-count": {func(c runConfig) []cell { return corpusCells(c.CorpusPrograms) }, corpusCount},
	"served-warm":  {func(runConfig) []cell { return warmSetCells() }, servedWarm},
	"disk-warm":    {func(runConfig) []cell { return netperfCells() }, diskWarm},
}

// runner carries one run's inputs, checks and measurements.
type runner struct {
	cfg   runConfig
	ctx   context.Context
	cells []cell
	rec   *recorder
	rng   *rand.Rand
	tr    *tracer // nil unless cfg.Trace
	dirs  int

	setupS   []float64
	window   time.Duration
	passes   int
	alloc    uint64 // bytes allocated in the timed window
	counters storeCounters
	// Calibration points (calib.go), in ms: at each set-up, and through
	// the timed window, where pausedCalib accumulates their time so it
	// stays out of the window.
	setupCalib  []float64
	calib       []float64
	lastCalib   time.Time
	pausedCalib time.Duration
}

// tempDir returns a fresh directory under the run's work directory.
func (r *runner) tempDir() (string, error) {
	r.dirs++
	dir := filepath.Join(r.cfg.WorkDir, fmt.Sprintf("d%d", r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// calibrate records a calibration point of the timed window.
func (r *runner) calibrate() {
	t0 := time.Now()
	r.calib = append(r.calib, calibrate())
	r.lastCalib = time.Now()
	r.pausedCalib += r.lastCalib.Sub(t0)
}

// calibrateIfDue records a calibration point when the last one is
// calibrationEvery old.
func (r *runner) calibrateIfDue() {
	if time.Since(r.lastCalib) >= calibrationEvery {
		r.calibrate()
	}
}

// setUp runs fn cfg.Setups times, timing each. fn replaces the previous
// set-up's fixture; the heap is collected between set-ups so each starts
// from the same state.
func (r *runner) setUp(fn func() error) error {
	for k := 0; k < r.cfg.Setups; k++ {
		runtime.GC()
		debug.FreeOSMemory()
		r.setupCalib = append(r.setupCalib, calibrate())
		t0 := time.Now()
		err := fn()
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// measure runs the timed window and accounts its allocations.
func (r *runner) measure(fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	return err
}

// timedPasses runs whole passes over the cells, each in a fresh seeded
// order, until cfg.Seconds have elapsed. pass runs one pass's ops (through
// op, which interleaves the calibration points) and returns the clean-up to
// run outside the timed window.
func (r *runner) timedPasses(pass func(order []int) (cleanup func(), err error)) error {
	return r.measure(func() error {
		r.calibrate()
		for r.passes == 0 || r.window.Seconds() < r.cfg.Seconds {
			order := r.rng.Perm(len(r.cells))
			r.pausedCalib = 0
			t0 := time.Now()
			cleanup, err := pass(order)
			r.window += time.Since(t0) - r.pausedCalib
			r.passes++
			if cleanup != nil {
				cleanup()
			}
			if err != nil {
				return err
			}
		}
		r.calibrate()
		return nil
	})
}

// op runs cell i through serve.Run on store and records it, then takes a
// calibration point if one is due.
func (r *runner) op(store *pipeline.Store, i int) {
	t0 := time.Now()
	res, err := serve.Run(r.ctx, store, parallelism, r.cells[i].Req, nil)
	r.rec.timed(i, time.Since(t0), res, err)
	r.calibrateIfDue()
}

// warmUp runs the first cell of each instruction set once on a throwaway
// store, so lazily built tables exist before the timed window. It is the
// set-up of the cold workloads.
func (r *runner) warmUp() error {
	store := pipeline.NewStore()
	seen := make(map[string]bool)
	for i, c := range r.cells {
		if seen[c.Req.ISA] {
			continue
		}
		seen[c.Req.ISA] = true
		res, err := serve.Run(r.ctx, store, parallelism, c.Req, nil)
		r.rec.untimed(i, res, err)
	}
	return nil
}

// verifyPayloads replays every distinct payload the timed window returned
// in the emulator against its cell's binary, fetched through store. Every
// op of a cell returned the same payloads (its digest matched), so a
// payload that fails fails all of them.
func (r *runner) verifyPayloads(store *pipeline.Store) error {
	for i, res := range r.rec.first {
		if res == nil || res.Op != serve.OpPlan {
			continue
		}
		c := r.cells[i]
		bin, _, err := buildOf(r.ctx, store, c.Req)
		if err != nil {
			return fmt.Errorf("%s: build for payload verification: %w", c.ID, err)
		}
		for _, g := range res.Goals {
			goal, ok := goalByName(c.Req.ISA, g.Goal)
			if !ok {
				r.rec.failCell(i, "%s: unknown goal %q", c.ID, g.Goal)
				continue
			}
			for k, p := range g.Payloads {
				pl := &payload.Payload{Bytes: p.Data, Base: p.Base, Entry: p.Entry, Goal: goal}
				if sha(p.Data) != p.SHA256 {
					r.rec.failCell(i, "%s: %s payload %d: bytes do not match their SHA-256", c.ID, g.Goal, k+1)
				} else if err := payload.Verify(bin, pl, verifySteps); err != nil {
					r.rec.failCell(i, "%s: %s payload %d: %v", c.ID, g.Goal, k+1, err)
				}
			}
		}
	}
	return nil
}

// netperfCold runs the case-study matrix cold: every pass analyzes the
// eight cells through serve.Run on a fresh store whose disk tier writes to
// a fresh directory.
func netperfCold(r *runner) error {
	if err := r.setUp(r.warmUp); err != nil {
		return err
	}
	err := r.timedPasses(func(order []int) (func(), error) {
		dir, err := r.tempDir()
		if err != nil {
			return nil, err
		}
		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			return func() { os.RemoveAll(dir) }, err
		}
		store := pipeline.NewStore().WithDisk(disk)
		for _, i := range order {
			r.op(store, i)
		}
		return func() {
			r.counters.add(countersOf(store))
			os.RemoveAll(dir)
		}, nil
	})
	if err != nil {
		return err
	}
	if err := r.verifyPayloads(pipeline.NewStore()); err != nil {
		return err
	}
	if r.tr != nil {
		r.traceCompute()
	}
	return nil
}

// corpusCount counts gadgets across the generated corpus cold: a fresh
// memory-only store per pass.
func corpusCount(r *runner) error {
	if err := r.setUp(r.warmUp); err != nil {
		return err
	}
	err := r.timedPasses(func(order []int) (func(), error) {
		store := pipeline.NewStore()
		for _, i := range order {
			r.op(store, i)
		}
		return func() { r.counters.add(countersOf(store)) }, nil
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		r.traceCompute()
	}
	return nil
}

// gpd is an in-process analysis server on a unix socket: serve.Server
// behind net/http, as cmd/gpd runs it.
type gpd struct {
	dir    string
	store  *pipeline.Store
	hsrv   *http.Server
	sock   string
	served chan struct{} // closed when Serve has returned
}

func startGPD(dir string) (*gpd, error) {
	store := pipeline.NewStore().WithGate(pipeline.NewGate(parallelism, nil))
	sock := filepath.Join(dir, "gpd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	g := &gpd{dir: dir, store: store, sock: sock, served: make(chan struct{}),
		hsrv: &http.Server{Handler: serve.NewServer(store, parallelism).Handler()}}
	go func() {
		defer close(g.served)
		// Serve returns http.ErrServerClosed once close runs; any earlier
		// failure surfaces as failed requests.
		_ = g.hsrv.Serve(l)
	}()
	return g, nil
}

func (g *gpd) dial() (*serve.Client, error) { return serve.Dial("unix:" + g.sock) }

// close stops the server, waits for Serve to return and removes its
// directory.
func (g *gpd) close() {
	g.hsrv.Close()
	<-g.served
	os.RemoveAll(g.dir)
}

// loadClient is one of served-warm's closed-loop clients: its own
// connection and its own seeded shuffle of the cells.
type loadClient struct {
	c     *serve.Client
	rng   *rand.Rand
	order []int
}

// next returns the client's next cell, reshuffling after each round.
func (lc *loadClient) next(n int) int {
	if len(lc.order) == 0 {
		lc.order = lc.rng.Perm(n)
	}
	i := lc.order[0]
	lc.order = lc.order[1:]
	return i
}

// servedWarm loads gpd with the warm set during set-up, then two
// closed-loop clients send the same requests in seeded shuffled orders:
// every request is a memory hit.
func servedWarm(r *runner) error {
	var g *gpd
	defer func() {
		if g != nil {
			g.close()
		}
	}()
	err := r.setUp(func() error {
		if g != nil {
			g.close()
			g = nil
		}
		dir, err := r.tempDir()
		if err != nil {
			return err
		}
		if g, err = startGPD(dir); err != nil {
			return err
		}
		client, err := g.dial()
		if err != nil {
			return err
		}
		if err := client.WaitReady(r.ctx, 10*time.Second); err != nil {
			return err
		}
		for i, c := range r.cells {
			res, err := client.Run(r.ctx, c.Req, nil)
			r.rec.untimed(i, res, err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	before := countersOf(g.store)
	err = r.measure(func() error {
		clients := make([]*loadClient, loadClients)
		for k := range clients {
			c, err := g.dial()
			if err != nil {
				return err
			}
			clients[k] = &loadClient{c: c, rng: rand.New(rand.NewPCG(uint64(r.cfg.Seed), uint64(k+1)))}
		}
		// The window runs in segments of calibrationEvery with a
		// calibration point between them, while both clients are idle.
		r.calibrate()
		for r.passes == 0 || r.window.Seconds() < r.cfg.Seconds {
			left := time.Duration((r.cfg.Seconds - r.window.Seconds()) * float64(time.Second))
			t0 := time.Now()
			deadline := t0.Add(max(0, min(calibrationEvery, left)))
			var wg sync.WaitGroup
			for _, lc := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := lc.next(len(r.cells))
						t := time.Now()
						res, err := lc.c.Run(r.ctx, r.cells[i].Req, nil)
						r.rec.timed(i, time.Since(t), res, err)
						if !time.Now().Before(deadline) {
							return
						}
					}
				}()
			}
			wg.Wait()
			r.window += time.Since(t0)
			r.passes++
			r.calibrate()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.counters = countersOf(g.store).sub(before)
	if err := r.verifyPayloads(g.store); err != nil {
		return err
	}
	if r.tr != nil {
		r.traceCompute()
		client, err := g.dial()
		if err != nil {
			return err
		}
		r.traceServed(g.store, client)
	}
	return nil
}

// diskWarm fills a disk cache with one cold netperf pass during set-up;
// every timed pass then opens a fresh store on that cache, as a second
// process would, and every stage is read from disk.
func diskWarm(r *runner) error {
	var dir string
	defer func() { os.RemoveAll(dir) }()
	err := r.setUp(func() error {
		os.RemoveAll(dir)
		var err error
		if dir, err = r.tempDir(); err != nil {
			return err
		}
		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			return err
		}
		store := pipeline.NewStore().WithDisk(disk)
		for i, c := range r.cells {
			res, err := serve.Run(r.ctx, store, parallelism, c.Req, nil)
			r.rec.untimed(i, res, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	open := func() (*pipeline.Store, error) {
		disk, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			return nil, err
		}
		return pipeline.NewStore().WithDisk(disk), nil
	}
	err = r.timedPasses(func(order []int) (func(), error) {
		store, err := open()
		if err != nil {
			return nil, err
		}
		for _, i := range order {
			r.op(store, i)
		}
		return func() { r.counters.add(countersOf(store)) }, nil
	})
	if err != nil {
		return err
	}
	store, err := open()
	if err != nil {
		return err
	}
	if err := r.verifyPayloads(store); err != nil {
		return err
	}
	if r.tr != nil {
		r.traceCompute()
		return r.traceDisk(dir)
	}
	return nil
}
