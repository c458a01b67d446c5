package pipeline

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

func TestDoComputesOncePerKey(t *testing.T) {
	s := NewStore()
	var calls atomic.Int64
	compute := func() (*int, error) {
		calls.Add(1)
		v := 7
		return &v, nil
	}

	var wg sync.WaitGroup
	results := make([]*int, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := Do(s, StageExtract, "k", compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1 (singleflight)", n)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("concurrent requesters did not share one artifact pointer")
		}
	}
	stats := s.Stats()[StageExtract]
	if stats.Misses != 1 || stats.Hits != 15 {
		t.Fatalf("hits/misses = %d/%d, want 15/1", stats.Hits, stats.Misses)
	}
}

func TestDoHitReportsOriginalComputeCost(t *testing.T) {
	s := NewStore()
	one := func() (int, error) { return 1, nil }
	_, cold, _ := Do(s, StagePlan, "k", one)
	v, warm, _ := Do(s, StagePlan, "k", one)
	if v != 1 {
		t.Fatalf("v = %d", v)
	}
	if cold.Hit || !warm.Hit {
		t.Fatalf("hit flags: cold=%v warm=%v", cold.Hit, warm.Hit)
	}
	if warm.Compute != cold.Compute {
		t.Fatalf("warm hit reports %v, want the original cost %v", warm.Compute, cold.Compute)
	}
}

func TestDisabledStoreRecomputes(t *testing.T) {
	s := NewDisabledStore()
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 1, nil }
	Do(s, StageBuild, "k", compute)
	Do(s, StageBuild, "k", compute)
	if n := calls.Load(); n != 2 {
		t.Fatalf("computed %d times, want 2 (disabled store)", n)
	}
	stats := s.Stats()[StageBuild]
	if stats.Hits != 0 || stats.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", stats.Hits, stats.Misses)
	}
	if s.Caching() {
		t.Fatal("disabled store reports caching")
	}
}

func TestNilStoreAndEmptyKey(t *testing.T) {
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 1, nil }
	var nilStore *Store
	Do(nilStore, StageExtract, "k", compute)
	if nilStore.Caching() {
		t.Fatal("nil store reports caching")
	}
	if nilStore.Stats() != nil {
		t.Fatal("nil store stats non-nil")
	}

	s := NewStore()
	Do(s, StageExtract, "", compute) // unfingerprintable: bypasses the store
	Do(s, StageExtract, "", compute)
	if n := calls.Load(); n != 3 {
		t.Fatalf("computed %d times, want 3", n)
	}
	// Empty keys bypass counters too: they are not store traffic.
	if st := s.Stats()[StageExtract]; st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("empty-key requests counted: %d/%d", st.Hits, st.Misses)
	}
}

func TestDoCachesErrors(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 0, boom }
	_, _, err1 := Do(s, StageBuild, "k", compute)
	_, _, err2 := Do(s, StageBuild, "k", compute)
	if !errors.Is(err1, boom) || !errors.Is(err2, boom) {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failed computation ran %d times, want 1 (errors are artifacts)", n)
	}
}

// TestDoPanicNotCached checks a panicking computation neither escapes Do
// nor poisons its key: every concurrent requester receives an error that
// carries the panic and its stack, and the next request for the key
// recomputes, succeeds, and is cached as usual. The waiters are given time
// to block on the winner; one that arrives late runs its own (identical,
// panicking) computation, so the assertions hold either way.
func TestDoPanicNotCached(t *testing.T) {
	for _, limit := range []int{0, 4} {
		s := NewStore().LimitMemory(limit)
		entered := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		panicky := func() (*int, error) {
			once.Do(func() { close(entered) })
			<-release
			panic("stage exploded")
		}

		const requesters = 5
		errs := make(chan error, requesters)
		go func() {
			_, _, err := Do(s, StageBuild, "k", panicky)
			errs <- err
		}()
		<-entered
		for i := 1; i < requesters; i++ {
			go func() {
				_, _, err := Do(s, StageBuild, "k", panicky)
				errs <- err
			}()
		}
		time.Sleep(20 * time.Millisecond)
		close(release)
		for i := 0; i < requesters; i++ {
			err := <-errs
			if err == nil || !strings.Contains(err.Error(), "stage exploded") ||
				!strings.Contains(err.Error(), "TestDoPanicNotCached") {
				t.Fatalf("limit %d: requester got %v, want the panic with its stack", limit, err)
			}
		}

		var calls atomic.Int64
		ok := func() (*int, error) { calls.Add(1); v := 7; return &v, nil }
		for i := 0; i < 2; i++ {
			v, _, err := Do(s, StageBuild, "k", ok)
			if err != nil || v == nil || *v != 7 {
				t.Fatalf("limit %d: request %d after the panic: %v, %v", limit, i, v, err)
			}
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("limit %d: recovered key computed %d times, want 1", limit, n)
		}
		if n := s.MemEntries(); n != 1 {
			t.Fatalf("limit %d: %d memory entries, want 1", limit, n)
		}
	}
}

// TestOptionFingerprintsCanonicalize pins the property the whole keying
// scheme rests on: zero-value options and explicitly-defaulted options
// address the same artifact, and worker counts never change the key.
func TestOptionFingerprintsCanonicalize(t *testing.T) {
	if (gadget.Options{}).Fingerprint() != (gadget.Options{MaxInsts: 40, Parallelism: 8}).Fingerprint() {
		t.Error("gadget.Options: zero vs defaulted fingerprints differ")
	}
	if (subsume.Options{}).Fingerprint() != (subsume.Options{Parallelism: 3}).Fingerprint() {
		t.Error("subsume.Options: zero vs defaulted fingerprints differ")
	}
	if (planner.Options{}).Fingerprint() != (planner.Options{Parallelism: 5}).Fingerprint() {
		t.Error("planner.Options: zero vs defaulted fingerprints differ")
	}
	// Result-changing knobs must change the key.
	if (gadget.Options{MaxInsts: 10}).Fingerprint() == (gadget.Options{MaxInsts: 12}).Fingerprint() {
		t.Error("gadget.Options: MaxInsts not keyed")
	}
	if (subsume.Options{}).Fingerprint() == (subsume.Options{MaxConflicts: 100}).Fingerprint() {
		t.Error("subsume.Options: MaxConflicts not keyed")
	}
	if (planner.Options{MaxPlans: 1}).Fingerprint() == (planner.Options{MaxPlans: 2}).Fingerprint() {
		t.Error("planner.Options: MaxPlans not keyed")
	}
}

func TestBuildKeyIgnoresProgramName(t *testing.T) {
	if BuildKey("src", []string{"sub"}, 1) != BuildKey("src", []string{"sub"}, 1) {
		t.Fatal("BuildKey not deterministic")
	}
	if BuildKey("src", []string{"sub"}, 1) == BuildKey("src", []string{"sub"}, 2) {
		t.Fatal("seed not keyed")
	}
	if BuildKey("src", []string{"sub", "bcf"}, 1) == BuildKey("src", []string{"bcf", "sub"}, 1) {
		t.Fatal("pass order not keyed")
	}
}

func TestBinaryKeyMemoized(t *testing.T) {
	s := NewStore()
	bin, err := Build(s, benchprog.Benchmarks()[0], nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	k1 := s.BinaryKey(bin)
	k2 := s.BinaryKey(bin)
	if k1 == "" || k1 != k2 {
		t.Fatalf("BinaryKey not stable: %q vs %q", k1, k2)
	}
	var nilStore *Store
	if nilStore.BinaryKey(bin) != "" {
		t.Fatal("nil store BinaryKey should be empty")
	}
}

// TestBuildSharedAcrossStages exercises the chained helpers end to end:
// one build, shared; scan, extraction, and self-modification all served
// from the same store on repeat.
func TestBuildSharedAcrossStages(t *testing.T) {
	s := NewStore()
	p := benchprog.Benchmarks()[0]
	passes := obfuscate.LLVMObf()

	b1, err := Build(s, p, passes, 42)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build(s, p, passes, 42)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("repeat build not served from store")
	}

	c1 := Count(s, b1, 10)
	c2 := Count(s, b1, 10)
	if &c1 == nil || gadget.TotalCount(c1) != gadget.TotalCount(c2) {
		t.Fatal("count artifacts disagree")
	}

	p1 := Extract(s, b1, gadget.Options{})
	p2 := Extract(s, b1, gadget.Options{MaxInsts: 40})
	if p1 != p2 {
		t.Fatal("defaulted extract options did not share the artifact")
	}

	sm1, err := SelfModify(s, b1, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	sm2, err := SelfModify(s, b1, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	if sm1 != sm2 {
		t.Fatal("repeat self-modification not served from store")
	}

	stats := s.Stats()
	for _, st := range []Stage{StageBuild, StageCount, StageExtract, StageEncode} {
		if stats[st].Hits == 0 {
			t.Errorf("stage %s saw no hits", st)
		}
	}
	if s.StatsLine() == "" {
		t.Error("empty stats line")
	}
}
