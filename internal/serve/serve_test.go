package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	store := pipeline.NewStore().WithGate(pipeline.NewGate(2, nil))
	srv := NewServer(store, 1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// TestRequestKeyCanonical pins the keying contract: defaulted and explicit
// requests address the same artifacts, different work gets different keys.
func TestRequestKeyCanonical(t *testing.T) {
	base := Request{Program: "crc"}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Explicit defaults and display-only fields do not change the key.
	explicit := Request{Op: OpPlan, Program: "crc", Goal: "all", Name: "some-label"}
	if k, _ := explicit.Key(); k != k0 {
		t.Errorf("explicit defaults changed the key:\n %s\n %s", k0, k)
	}

	// A program by name and its inlined source are the same build.
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("no crc benchmark")
	}
	inline := Request{Source: p.Source, Name: "inlined"}
	if k, _ := inline.Key(); k != k0 {
		t.Errorf("inline source diverged from program-by-name:\n %s\n %s", k0, k)
	}

	// timeout_ms is not a request field: decoding ignores it, so the
	// request keys like the one without it.
	var withTimeout Request
	if err := json.Unmarshal([]byte(`{"program":"crc","timeout_ms":5}`), &withTimeout); err != nil {
		t.Fatal(err)
	}
	if k, err := withTimeout.Key(); err != nil || k != k0 {
		t.Errorf("timeout_ms changed the key: %q/%v, want %q", k, err, k0)
	}

	// The node cap itself is a valid budget.
	if _, err := (Request{Program: "crc", MaxNodes: maxRequestNodes}).Key(); err != nil {
		t.Errorf("max_nodes %d rejected: %v", maxRequestNodes, err)
	}

	// Different obfuscation, seed, op, or goal is different work.
	for _, r := range []Request{
		{Program: "crc", Obf: "llvm"},
		{Program: "crc", Seed: 7},
		{Program: "crc", Op: OpCount},
		{Program: "crc", Op: OpAnalyze},
		{Program: "crc", Goal: "mprotect"},
		{Program: "crc", SelfMod: 3},
		{Program: "crc", MaxNodes: 123},
	} {
		k, err := r.Key()
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if k == k0 {
			t.Errorf("distinct request %+v collided with the base key", r)
		}
	}

	// A binary tagged with an ISA no backend implements must not be
	// analyzed as x64 under a key naming the tag.
	crc, err := benchprog.BuildISA(p, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	crc.ISA = "mips"

	// Malformed requests are rejected at keying time.
	for _, r := range []Request{
		{},
		{Program: "crc", Source: "int main() {}"},
		{Program: "no-such-program"},
		{Program: "crc", Op: "frobnicate"},
		{Program: "crc", Goal: "no-such-goal"},
		{Binary: []byte{1, 2, 3}, Obf: "llvm"},
		{Binary: crc.Marshal()},
		// Self-modification keys are one byte: 256 used to pass keying and
		// fail at run time, and 257 and -255 used to share key 1's key.
		{Program: "crc", SelfMod: 256},
		{Program: "crc", SelfMod: 257},
		{Program: "crc", SelfMod: -255},
		// Planner budgets are rejected outside their range, not clamped
		// and not keyed: a negative budget would run a degenerate search.
		{Program: "crc", MaxPlans: -1},
		{Program: "crc", MaxNodes: -1},
		{Program: "crc", MaxNodes: maxRequestNodes + 1},
	} {
		if _, err := r.Key(); err == nil {
			t.Errorf("bad request %+v keyed without error", r)
		}
	}
}

// TestConcurrentClientsIdentical is the concurrent-client determinism
// gate: N clients submit overlapping request sets concurrently, every
// response renders byte-identical to a local single-process run, and the
// server's stats show each unique artifact was computed exactly once.
func TestConcurrentClientsIdentical(t *testing.T) {
	reqs := []Request{
		{Op: OpCount, Program: "bubblesort"},
		{Op: OpCount, Program: "bubblesort", Obf: "llvm"},
		{Op: OpPlan, Program: "bubblesort", Goal: "execve", MaxPlans: 2, MaxNodes: 800},
	}
	ctx := context.Background()

	// Local single-process reference: each request against a fresh store.
	ref := make([]string, len(reqs))
	for i, r := range reqs {
		res, err := Run(ctx, pipeline.NewStore(), 1, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res.Canon()
	}

	srv, client := newTestServer(t)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks the set from a different offset, so the
			// overlap pattern varies client to client.
			for i := range reqs {
				j := (i + c) % len(reqs)
				res, err := client.Run(ctx, reqs[j], nil)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Canon(); got != ref[j] {
					t.Errorf("client %d request %d diverged from local run:\n got: %q\nwant: %q", c, j, got, ref[j])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// Computed-once: 12 requests, but each unique artifact computed once.
	st := srv.Snapshot()
	if st.Requests != int64(clients*len(reqs)) {
		t.Errorf("requests = %d, want %d", st.Requests, clients*len(reqs))
	}
	wantMisses := map[string]int64{
		"build": 2, // bubblesort original + llvm
		"count": 2,
		"plan":  1,
	}
	for _, row := range st.Stages {
		want, ok := wantMisses[row.Stage]
		if !ok {
			continue
		}
		if row.Misses != want {
			t.Errorf("stage %s misses = %d, want %d (computed more than once)", row.Stage, row.Misses, want)
		}
	}
}

// TestServedStagesStream checks that a served request reports its stage
// trail and that a warm repeat marks stages cached.
func TestServedStagesStream(t *testing.T) {
	_, client := newTestServer(t)
	req := Request{Op: OpCount, Program: "crc"}
	ctx := context.Background()

	var coldStages []StageEvent
	if _, err := client.Run(ctx, req, func(ev StageEvent) { coldStages = append(coldStages, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(coldStages) == 0 {
		t.Fatal("no stage events streamed")
	}
	for _, ev := range coldStages {
		if ev.Cached {
			t.Errorf("cold stage %s reported cached", ev.Stage)
		}
	}

	var warmStages []StageEvent
	res, err := client.Run(ctx, req, func(ev StageEvent) { warmStages = append(warmStages, ev) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range warmStages {
		if !ev.Cached {
			t.Errorf("warm stage %s reported uncached", ev.Stage)
		}
	}
	if len(res.Stages) != len(warmStages) {
		t.Errorf("result carries %d stages, streamed %d", len(res.Stages), len(warmStages))
	}
}

// TestDrain pins the drain semantics: a draining server refuses new runs
// and reports unhealthy, but still serves stats.
func TestDrain(t *testing.T) {
	srv, client := newTestServer(t)
	ctx := context.Background()
	srv.SetDraining(true)

	if _, err := client.Run(ctx, Request{Op: OpCount, Program: "crc"}, nil); err == nil {
		t.Error("draining server accepted a run")
	} else if !strings.Contains(err.Error(), "503") {
		t.Errorf("draining run error = %v, want a 503", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats during drain: %v", err)
	}
	if !st.Draining {
		t.Error("stats do not report draining")
	}

	srv.SetDraining(false)
	if _, err := client.Run(ctx, Request{Op: OpCount, Program: "crc"}, nil); err != nil {
		t.Errorf("undrained server refused a run: %v", err)
	}
}

// TestServerErrorPropagates checks a failing request surfaces as a client
// error, not a broken stream.
func TestServerErrorPropagates(t *testing.T) {
	_, client := newTestServer(t)
	_, err := client.Run(context.Background(), Request{Binary: []byte("not an sbf binary")}, nil)
	if err == nil {
		t.Fatal("malformed binary served without error")
	}
}

// TestNodeBudgetOutOfRange pins that gpd answers a node budget above
// maxRequestNodes with 400 before keying, and serves one at the cap.
func TestNodeBudgetOutOfRange(t *testing.T) {
	_, client := newTestServer(t)
	req := Request{Program: "crc", Goal: "execve", MaxPlans: 1, MaxNodes: maxRequestNodes + 1}
	_, err := client.Run(context.Background(), req, nil)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("max_nodes %d served with error %v, want a 400", req.MaxNodes, err)
	}
	req.MaxNodes = maxRequestNodes
	if _, err := client.Run(context.Background(), req, nil); err != nil {
		t.Errorf("max_nodes %d: %v", req.MaxNodes, err)
	}
}

// TestSelfModOutOfRange pins that gpd answers a self-modification key
// outside 1..255 with 400 before keying, not with an error event in a 200
// stream, and that the two ends of the range are distinct requests.
func TestSelfModOutOfRange(t *testing.T) {
	_, client := newTestServer(t)
	_, err := client.Run(context.Background(), Request{Op: OpCount, Program: "crc", SelfMod: 256}, nil)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("selfmod 256 served with error %v, want a 400", err)
	}
	k1, err1 := Request{Program: "crc", SelfMod: 1}.Key()
	k255, err255 := Request{Program: "crc", SelfMod: 255}.Key()
	if err1 != nil || err255 != nil || k1 == k255 {
		t.Errorf("selfmod 1 and 255: keys %q/%v and %q/%v, want two distinct keys", k1, err1, k255, err255)
	}
}
