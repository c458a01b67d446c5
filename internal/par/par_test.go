package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce checks the index partition at several worker
// counts, including more workers than items and no items at all.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// panicker panics at index bad; it is a named function so the recovered
// stack can be checked for the worker's frames.
func panicker(bad int) func(int) {
	return func(i int) {
		if i == bad {
			panic("item exploded")
		}
	}
}

// TestForPanicReachesCaller: a panic at one index of n is recovered by the
// caller of For at every worker count, carrying the index, the value and
// the panicking worker's stack.
func TestForPanicReachesCaller(t *testing.T) {
	const n, bad = 64, 37
	for _, workers := range []int{1, 2, 8} {
		p := func() (p *Panic) {
			defer func() {
				r := recover()
				p, _ = r.(*Panic)
				if p == nil {
					t.Fatalf("workers=%d: recovered %#v, want *Panic", workers, r)
				}
			}()
			For(workers, n, panicker(bad))
			return nil
		}()
		if p.Index != bad || p.Value != "item exploded" {
			t.Errorf("workers=%d: got index %d value %v", workers, p.Index, p.Value)
		}
		if !strings.Contains(string(p.Stack), "panicker") {
			t.Errorf("workers=%d: stack lacks the panicking frame:\n%s", workers, p.Stack)
		}
		if !strings.Contains(p.Error(), "item exploded") {
			t.Errorf("workers=%d: Error() = %q", workers, p.Error())
		}
	}
}

// TestForLowestIndexPanicWins: with several panicking items, the caller
// sees the lowest index whatever the scheduling, and every other item
// still runs.
func TestForLowestIndexPanicWins(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int32
		func() {
			defer func() {
				p, _ := recover().(*Panic)
				if p == nil || p.Index != 10 {
					t.Fatalf("workers=%d: recovered %v, want the panic at index 10", workers, p)
				}
			}()
			For(workers, n, func(i int) {
				ran.Add(1)
				if i%10 == 0 && i > 0 {
					panic(i)
				}
			})
		}()
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: %d of %d items ran", workers, got, n)
		}
	}
}
