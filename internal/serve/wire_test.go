package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// postRun POSTs req to a /run endpoint and returns the response's JSONL
// lines, each parsed into its top-level fields.
func postRun(url string, req Request) ([]map[string]json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /run: %s", resp.Status)
	}
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad JSONL line %q: %w", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	return lines, sc.Err()
}

// checkStream asserts the /run protocol on one response: stage lines, then
// exactly one final line of kind want ("result" or "error"), and no other
// event. It returns the number of stage lines.
func checkStream(t *testing.T, who string, r response, want string) int {
	t.Helper()
	lines, err := r.lines, r.err
	if err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	if len(lines) == 0 {
		t.Fatalf("%s: empty response", who)
	}
	for i, line := range lines {
		var ev string
		if err := json.Unmarshal(line["event"], &ev); err != nil {
			t.Fatalf("%s: line %d has no event: %v", who, i, err)
		}
		if i < len(lines)-1 {
			if ev != "stage" {
				t.Errorf("%s: line %d is a %q event, want stage", who, i, ev)
			}
			continue
		}
		if ev != want {
			t.Errorf("%s: final line is a %q event, want %q", who, ev, want)
		}
		if want == "result" {
			var res map[string]json.RawMessage
			if err := json.Unmarshal(line["result"], &res); err != nil {
				t.Fatalf("%s: result line carries no result: %v", who, err)
			}
			if _, ok := res["wall"]; ok {
				t.Errorf("%s: result carries a wall field", who)
			}
		}
	}
	return len(lines) - 1
}

// response is one postRun outcome.
type response struct {
	lines []map[string]json.RawMessage
	err   error
}

// runAsync runs postRun on its own goroutine.
func runAsync(url string, req Request) <-chan response {
	ch := make(chan response, 1)
	go func() {
		lines, err := postRun(url, req)
		ch <- response{lines, err}
	}()
	return ch
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdBuild takes the build stage's only gate slot with a computation that
// runs until the returned release is closed, so requests queue on the gate.
func holdBuild(store *pipeline.Store) (release chan struct{}) {
	held, release := make(chan struct{}), make(chan struct{})
	go pipeline.DoCtx(context.Background(), store, pipeline.StageBuild, "held", func() (int, error) {
		close(held)
		<-release
		return 0, nil
	})
	<-held
	return release
}

// buildQueued reports how many computations wait on the build gate.
func buildQueued(store *pipeline.Store) int64 {
	for _, g := range store.Gate().Stats() {
		if g.Stage == pipeline.StageBuild.String() {
			return g.Queued
		}
	}
	return 0
}

// canonOf decodes the result line of a /run response and renders it.
func canonOf(t *testing.T, r response) string {
	t.Helper()
	var res Result
	if err := json.Unmarshal(r.lines[len(r.lines)-1]["result"], &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res.Canon()
}

// TestRunWireFormat pins the /run JSONL protocol on the raw stream, for two
// identical requests in flight at once and for a failing request: stage
// lines followed by exactly one result or error line, with no other event.
// The identical requests share each stage through the store, which computes
// it once. It also pins that /stats has no wall key.
func TestRunWireFormat(t *testing.T) {
	store := pipeline.NewStore().WithGate(pipeline.NewGate(1, nil))
	srv := NewServer(store, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := holdBuild(store)
	req := Request{Op: OpCount, Program: "crc"}
	first := runAsync(ts.URL, req)
	waitUntil(t, "the first request to queue on the build gate", func() bool { return buildQueued(store) == 1 })
	second := runAsync(ts.URL, req)
	waitUntil(t, "both requests in flight", func() bool { return srv.Snapshot().InFlightRequests == 2 })
	close(release)

	r1, r2 := <-first, <-second
	n1 := checkStream(t, "first", r1, "result")
	n2 := checkStream(t, "second", r2, "result")
	if n1 == 0 || n2 != n1 {
		t.Errorf("first request streamed %d stages, second %d", n1, n2)
	}
	if c1, c2 := canonOf(t, r1), canonOf(t, r2); c1 != c2 {
		t.Errorf("identical requests diverged:\n%q\n%q", c1, c2)
	}
	// The held computation is one build miss; crc's build and count are
	// computed once for both requests.
	want := map[string]int64{"build": 2, "count": 1}
	for _, row := range srv.Snapshot().Stages {
		if w, ok := want[row.Stage]; ok && row.Misses != w {
			t.Errorf("stage %s misses = %d, want %d", row.Stage, row.Misses, w)
		}
	}
	checkStream(t, "failing request", <-runAsync(ts.URL, Request{Op: OpCount, Source: "int main( {"}), "error")

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["stages"]; !ok {
		t.Error("/stats has no stages field")
	}
	if _, ok := stats["wall"]; ok {
		t.Error("/stats carries a wall field")
	}
}

// TestDroppedClientWhileQueued: a client that disconnects while its request
// is queued on the build gate ends that request with an error, counted in
// request_errors, and a concurrent identical request still gets the local
// result.
func TestDroppedClientWhileQueued(t *testing.T) {
	req := Request{Op: OpCount, Program: "crc"}
	local, err := Run(context.Background(), pipeline.NewStore(), 1, req, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := pipeline.NewStore().WithGate(pipeline.NewGate(1, nil))
	srv := NewServer(store, 1)
	h := srv.Handler()
	dropped := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Test-Drop") != "" {
			go func() { <-r.Context().Done(); close(dropped) }()
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	release := holdBuild(store)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Test-Drop", "1")
	gone := make(chan struct{})
	go func() {
		if resp, err := http.DefaultClient.Do(hreq); err == nil {
			resp.Body.Close()
		}
		close(gone)
	}()
	waitUntil(t, "the dropped request to queue on the build gate", func() bool { return buildQueued(store) == 1 })
	other := runAsync(ts.URL, req)
	waitUntil(t, "both requests in flight", func() bool { return srv.Snapshot().InFlightRequests == 2 })
	cancel()
	<-gone
	select {
	case <-dropped:
	case <-time.After(10 * time.Second):
		t.Fatal("the server never saw the client disconnect")
	}
	close(release)

	r := <-other
	checkStream(t, "concurrent request", r, "result")
	if got := canonOf(t, r); got != local.Canon() {
		t.Errorf("concurrent request diverged from the local run:\n got: %q\nwant: %q", got, local.Canon())
	}
	waitUntil(t, "the dropped request to finish", func() bool { return srv.Snapshot().InFlightRequests == 0 })
	if st := srv.Snapshot(); st.Errors != 1 || st.Completed != 1 {
		t.Errorf("request_errors = %d, completed = %d; want 1 and 1", st.Errors, st.Completed)
	}
}

// TestBinaryRequestKeys pins how a served binary is keyed. The request key
// is the SHA-256 of the bytes as sent, so an image with an explicit x64
// tag and its canonical untagged form are two requests. The stage keys
// hash the canonical serialization, so the second request finds the first
// one's count in the store.
func TestBinaryRequestKeys(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	canonical := bin.Marshal()
	tagged := slices.Concat(sbf.Magic2[:], []byte{3, 0, 0, 0, 'x', '6', '4'}, canonical[len(sbf.Magic):])

	store := pipeline.NewStore()
	srv := NewServer(store, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct {
		name   string
		binary []byte
		key    string
		cached bool
	}{
		{"canonical", canonical, "bin:d823633037e0c3b7b0edaf971f031878|count:10", false},
		{"explicit x64 tag", tagged, "bin:2be829f3ac1ffd2af2ccae9bc9f5db88|count:10", true},
	} {
		r, err := postRun(ts.URL, Request{Op: OpCount, Binary: c.binary})
		checkStream(t, c.name, response{r, err}, "result")
		var res Result
		if err := json.Unmarshal(r[len(r)-1]["result"], &res); err != nil {
			t.Fatalf("%s: result line: %v", c.name, err)
		}
		if res.Key != c.key {
			t.Errorf("%s: request key %q, want %q", c.name, res.Key, c.key)
		}
		if len(res.Stages) != 1 || res.Stages[0].Stage != "count" || res.Stages[0].Cached != c.cached {
			t.Errorf("%s: stages %+v, want one count stage with cached=%v", c.name, res.Stages, c.cached)
		}
	}
	if got, want := pipeline.CountKey(pipeline.BinaryKey(bin), ""), "bin:d823633037e0c3b7b0edaf971f031878|count:10"; got != want {
		t.Errorf("count stage key %q, want %q", got, want)
	}
}
