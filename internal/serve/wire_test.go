package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
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

// TestRunWireFormat pins the /run JSONL protocol on the raw stream, for the
// winner of a request, for a joiner of the same request in flight, and for
// a failing request: stage lines followed by exactly one result or error
// line, with no other event. It also pins that /stats has no wall key.
func TestRunWireFormat(t *testing.T) {
	store := pipeline.NewStore().WithGate(pipeline.NewGate(1, nil))
	srv := NewServer(store, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the build stage's only slot, so the winner queues inside its
	// build while a second identical request joins its call.
	held, release := make(chan struct{}), make(chan struct{})
	go pipeline.DoCtx(context.Background(), store, pipeline.StageBuild, "", func() (int, error) {
		close(held)
		<-release
		return 0, nil
	})
	<-held
	buildQueued := func() int64 {
		for _, g := range store.Gate().Stats() {
			if g.Stage == pipeline.StageBuild.String() {
				return g.Queued
			}
		}
		return 0
	}

	req := Request{Op: OpCount, Program: "crc"}
	winner := runAsync(ts.URL, req)
	waitUntil(t, "the winner to queue on the build gate", func() bool { return buildQueued() == 1 })
	joiner := runAsync(ts.URL, req)
	waitUntil(t, "the second request to join", func() bool { return srv.Snapshot().DedupJoins == 1 })
	close(release)

	wStages := checkStream(t, "winner", <-winner, "result")
	jStages := checkStream(t, "joiner", <-joiner, "result")
	if wStages == 0 || jStages != wStages {
		t.Errorf("winner streamed %d stages, joiner %d", wStages, jStages)
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
