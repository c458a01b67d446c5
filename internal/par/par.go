// Package par is the one fan-out helper every parallel pipeline stage
// uses: index-addressed work on a bounded set of goroutines, with worker
// panics carried back to the caller.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is a recovered panic from fn(Index), re-raised on the goroutine
// that called For. Stack is the panicking goroutine's stack, taken before
// it unwound.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// For calls fn(i) for every i in [0, n) on up to workers goroutines and
// returns when all calls have finished. fn must write its results into
// index-addressed slots, never append to shared state. With one worker
// (or one item) the loop runs on the caller.
//
// Workers claim indices from an atomic counter, so no feeder can block on
// a dead worker. A panicking item stops neither its worker nor the others;
// once every item has run, For panics on the caller with a *Panic for the
// lowest panicking index, so a recover in the caller sees a worker's panic
// at every worker count.
func For(workers, n int, fn func(i int)) {
	r := &run{n: n, fn: fn}
	if workers = min(workers, n); workers <= 1 {
		r.work()
	} else {
		r.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer r.wg.Done()
				r.work()
			}()
		}
		r.wg.Wait()
	}
	if r.first != nil {
		panic(r.first)
	}
}

// run is one For call's shared state.
type run struct {
	next  atomic.Int64
	n     int
	fn    func(int)
	wg    sync.WaitGroup
	mu    sync.Mutex
	first *Panic // lowest-index panic so far
}

func (r *run) work() {
	for i := int(r.next.Add(1) - 1); i < r.n; i = int(r.next.Add(1) - 1) {
		r.call(i)
	}
}

// call runs one item, recording its panic instead of letting it kill the
// process.
func (r *run) call(i int) {
	defer func() {
		if v := recover(); v != nil {
			p := &Panic{Index: i, Value: v, Stack: debug.Stack()}
			r.mu.Lock()
			if r.first == nil || i < r.first.Index {
				r.first = p
			}
			r.mu.Unlock()
		}
	}()
	r.fn(i)
}
