package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGateBoundsConcurrency pins the gate contract: at most `limit`
// computations of one stage run simultaneously, everything else queues,
// and every request is eventually admitted.
func TestGateBoundsConcurrency(t *testing.T) {
	const limit, requests = 3, 24
	s := NewStore().WithGate(NewGate(limit, nil))

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := DoCtx(context.Background(), s, StageExtract, fmt.Sprintf("gate-test-%d", i), func() (int, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				defer cur.Add(-1)
				return i, nil
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrent computes %d exceeds gate limit %d", p, limit)
	}
	gs := s.Gate().Stats()
	var extract *GateStats
	for i := range gs {
		if gs[i].Stage == "extract" {
			extract = &gs[i]
		}
	}
	if extract == nil {
		t.Fatal("no extract gate stats")
	}
	if extract.Admitted != requests {
		t.Fatalf("admitted = %d, want %d", extract.Admitted, requests)
	}
	if extract.InFlight != 0 || extract.Queued != 0 {
		t.Fatalf("gate not drained: inflight=%d queued=%d", extract.InFlight, extract.Queued)
	}
}

// TestGateSingleflight: concurrent requests for one key still compute once
// and take only one slot.
func TestGateSingleflight(t *testing.T) {
	s := NewStore().WithGate(NewGate(1, nil))
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := DoCtx(context.Background(), s, StagePlan, "shared-key", func() (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	gs := s.Gate().Stats()
	for _, g := range gs {
		if g.Stage == "plan" && g.Admitted != 1 {
			t.Fatalf("plan admissions = %d, want 1 (singleflight)", g.Admitted)
		}
	}
}

// TestDoCtxCanceled: a canceled context skips the stage without computing
// or caching anything — a later request with a live context computes
// normally (cancellation errors are never cached as artifacts).
func TestDoCtxCanceled(t *testing.T) {
	s := NewStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ran := false
	_, _, err := DoCtx(ctx, s, StageExtract, "ctx-key", func() (int, error) {
		ran = true
		return 1, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("compute ran despite canceled context")
	}

	v, info, err := DoCtx(context.Background(), s, StageExtract, "ctx-key", func() (int, error) {
		return 2, nil
	})
	if err != nil || v != 2 {
		t.Fatalf("got %d, %v after cancellation, want fresh compute", v, err)
	}
	if info.Hit {
		t.Fatal("canceled request must not have populated the store")
	}
}
