package pipeline

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLimitMemoryEvictsLRU pins the bounded memory tier's contract: beyond
// the budget, completed artifacts are dropped least-recently-used, an
// evicted key recomputes on its next request, and retained keys keep
// hitting.
func TestLimitMemoryEvictsLRU(t *testing.T) {
	s := NewStore().LimitMemory(2)
	var calls atomic.Int64
	do := func(key string) {
		t.Helper()
		v, _, err := DoCtx(context.Background(), s, StageBuild, key, func() (string, error) {
			calls.Add(1)
			return "v-" + key, nil
		})
		if err != nil || v != "v-"+key {
			t.Fatalf("DoCtx(%s) = %q, %v", key, v, err)
		}
	}
	do("a")
	do("b")
	do("c") // budget 2: evicts a
	if got := s.MemEvictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := s.MemEntries(); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	do("b") // still resident
	do("c")
	if got := calls.Load(); got != 3 {
		t.Fatalf("computes after hits = %d, want 3", got)
	}
	do("a") // evicted: recomputes (and evicts b, the now-oldest)
	if got := calls.Load(); got != 4 {
		t.Fatalf("computes after re-request = %d, want 4", got)
	}
	do("c") // was touched before a's return: still resident
	if got := calls.Load(); got != 4 {
		t.Fatalf("c recomputed after a's return; computes = %d, want 4", got)
	}
	if line := s.StatsLine(); !strings.Contains(line, "mem:") {
		t.Errorf("StatsLine missing mem tier: %q", line)
	}
}

// TestLimitMemoryPinsInFlight pins that eviction never drops an entry whose
// computation is still running: waiters blocked in the singleflight hold
// the entry and must observe exactly one computation.
func TestLimitMemoryPinsInFlight(t *testing.T) {
	s := NewStore().LimitMemory(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var slowCalls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := DoCtx(context.Background(), s, StageBuild, "slow", func() (int, error) {
				slowCalls.Add(1)
				close(started)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("slow Do = %d, %v", v, err)
			}
		}()
	}
	<-started
	// Churn well past the budget while "slow" is mid-flight; the evictor
	// must skip it.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("churn-%d", i)
		DoCtx(context.Background(), s, StageBuild, key, func() (int, error) { return i, nil })
	}
	close(release)
	wg.Wait()
	if got := slowCalls.Load(); got != 1 {
		t.Fatalf("in-flight entry recomputed: %d computations", got)
	}
}

// TestLimitMemoryNoops pins the no-op case: an unbounded store takes the
// LimitMemory call without growing state or evicting.
func TestLimitMemoryNoops(t *testing.T) {
	u := NewStore().LimitMemory(0) // <= 0: unbounded
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		DoCtx(context.Background(), u, StageBuild, key, func() (int, error) { return i, nil })
	}
	if got, want := u.MemEntries(), 8; got != want {
		t.Errorf("unbounded entries = %d, want %d", got, want)
	}
	if got := u.MemEvictions(); got != 0 {
		t.Errorf("unbounded store evicted %d", got)
	}
}
