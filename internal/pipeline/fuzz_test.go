package pipeline

import (
	"bytes"
	"context"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// artifactSeeds encodes one artifact per stage from a small program: its
// build, self-modified build, gadget counts, raw and minimized pools, and
// one goal's plans and payloads.
func artifactSeeds(tb testing.TB) [numStages][]byte {
	tb.Helper()
	prog, ok := benchprog.ByName("primes")
	if !ok {
		tb.Fatal("benchmark program primes missing")
	}
	s := NewStore()
	bin, _, err := BuildISACtx(context.Background(), s, prog, nil, 42, "")
	if err != nil {
		tb.Fatal(err)
	}
	smc, _, err := SelfModifyCtx(context.Background(), s, bin, 0x5A)
	if err != nil {
		tb.Fatal(err)
	}
	counts, _, err := CountCtx(context.Background(), s, bin, 0)
	if err != nil {
		tb.Fatal(err)
	}
	raw := gadget.Extract(bin, gadget.Options{})
	min, stats := subsume.Minimize(raw, subsume.Options{})

	pool := gadget.ClonePool(min)
	conc := payload.NewConcretizer(pool, bin, 0x7FFF_8000)
	goal := planner.GoalsForISA(pool.ISA)[0]
	atk := &Attack{Goal: goal}
	opts := planner.Options{MaxPlans: 2}
	opts.Validate = func(p *planner.Plan) bool {
		pl, err := conc.Concretize(p, goal)
		if err != nil {
			atk.ConcretizeFailures++
			return false
		}
		atk.Payloads = append(atk.Payloads, pl)
		return true
	}
	res := planner.Search(pool, goal, opts)
	atk.Search, atk.Plans = *res, res.Plans

	if len(atk.Payloads) == 0 {
		tb.Fatalf("no %s payloads to seed the plan artifact", goal.Name)
	}

	artifacts := [numStages]any{
		StageBuild:    bin,
		StageEncode:   smc,
		StageCount:    counts,
		StageExtract:  raw,
		StageMinimize: Minimized{Pool: min, Stats: stats},
		StagePlan:     atk,
	}
	var seeds [numStages][]byte
	for st, v := range artifacts {
		data, ok := encodeArtifact(Stage(st), v)
		if !ok {
			tb.Fatalf("%s artifact did not encode", Stage(st))
		}
		seeds[st] = data
	}
	return seeds
}

// FuzzDecodeArtifact feeds arbitrary bytes to every stage's artifact
// decoder, the code that reads a persisted disk tier. decodeArtifact must
// never panic, and every input it accepts must round-trip: encoding the
// decoded artifact, decoding that and encoding again yields the same bytes.
func FuzzDecodeArtifact(f *testing.F) {
	seeds := artifactSeeds(f)
	for st, data := range seeds {
		f.Add(uint8(st), data)
	}
	f.Add(uint8(StageExtract), misplacedIDArtifact(f, seeds[StageExtract]))
	f.Fuzz(func(t *testing.T, stage uint8, data []byte) {
		st := Stage(stage % uint8(numStages))
		v, err := decodeArtifact(st, data)
		if err != nil {
			return
		}
		enc1, ok := encodeArtifact(st, v)
		if !ok {
			t.Fatalf("%s: decoded artifact does not encode", st)
		}
		v2, err := decodeArtifact(st, enc1)
		if err != nil {
			t.Fatalf("%s: re-encoded artifact does not decode: %v", st, err)
		}
		enc2, ok := encodeArtifact(st, v2)
		if !ok || !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: encode/decode/encode is not stable (%d vs %d bytes)", st, len(enc1), len(enc2))
		}
	})
}
