package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// maxErrs bounds how many failure messages a run keeps.
const maxErrs = 8

// recorder checks every op's result and collects its latency. It is safe
// for concurrent use by the served-warm clients.
type recorder struct {
	cells  []cell
	golden map[string]string

	mu        sync.Mutex
	lat       [][]float64 // per cell, ms
	all       []float64   // every timed sample, ms
	attempted int
	failed    int
	errs      []string
	canon     []string        // first full Canon per cell
	drift     []bool          // a later Canon differed from the first
	first     []*serve.Result // first result per cell, for payload verification
	okOf      []int           // ops per cell that passed the digest check
}

func newRecorder(cells []cell, golden map[string]string) *recorder {
	return &recorder{
		cells:  cells,
		golden: golden,
		lat:    make([][]float64, len(cells)),
		canon:  make([]string, len(cells)),
		drift:  make([]bool, len(cells)),
		first:  make([]*serve.Result, len(cells)),
		okOf:   make([]int, len(cells)),
	}
}

// fail counts one failed op. Callers hold r.mu.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// verdict is an op's result with its digest and Canon computed, outside
// the recorder's lock.
type verdict struct {
	res    *serve.Result
	err    error
	digest string
	canon  string
}

func judge(res *serve.Result, err error) verdict {
	v := verdict{res: res, err: err}
	if err == nil {
		v.digest, v.canon = outcomeOf(res).digest(), res.Canon()
	}
	return v
}

// check validates one op's result against the cell's golden digest and
// tracks Canon drift. Callers hold r.mu.
func (r *recorder) check(i int, v verdict) {
	r.attempted++
	id := r.cells[i].ID
	if v.err != nil {
		r.fail("%s: %v", id, v.err)
		return
	}
	want, ok := r.golden[id]
	if !ok {
		r.fail("%s: no golden digest (regenerate: go test -run TestUpdateGoldens -update)", id)
		return
	}
	if v.digest != want {
		r.fail("%s: result digest %s, golden %s", id, v.digest[:12], want[:12])
		return
	}
	r.okOf[i]++
	if r.first[i] == nil {
		r.first[i], r.canon[i] = v.res, v.canon
	} else if v.canon != r.canon[i] {
		r.drift[i] = true
	}
}

// untimed records an op run outside the timed window (set-up, traced pass).
func (r *recorder) untimed(i int, res *serve.Result, err error) {
	v := judge(res, err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(i, v)
}

// timed records an op of the timed window with its latency.
func (r *recorder) timed(i int, d time.Duration, res *serve.Result, err error) {
	ms := float64(d) / 1e6
	v := judge(res, err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[i] = append(r.lat[i], ms)
	r.all = append(r.all, ms)
	r.check(i, v)
}

// traced checks an outcome the traced pass computed without serve.Run.
func (r *recorder) traced(c cell, got outcome, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: traced pass: %v", c.ID, err)
	case got.digest() != r.golden[c.ID]:
		r.fail("%s: traced pass differs from serve.Run", c.ID)
	}
}

// failCell fails every op of cell i that passed the digest check: a payload
// of the cell did not verify, and each of those ops returned it.
func (r *recorder) failCell(i int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += r.okOf[i]
	r.okOf[i] = 0
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) driftCells() int {
	n := 0
	for _, d := range r.drift {
		if d {
			n++
		}
	}
	return n
}
