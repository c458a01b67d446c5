// Package serve is the gpd analysis service: a long-running server that
// accepts analyze/plan/count requests over HTTP (TCP or a unix socket),
// runs them through one warm shared artifact store, and streams per-stage
// progress plus a canonical result back as JSONL.
//
// The millions-of-users shape the ROADMAP names is: N clients, one warm
// shared cache, bounded worker pools per stage. Three layers provide it:
//
//   - Request keying. Every request is canonicalized into the store's
//     existing chained fingerprint keys (pipeline.BuildKey → ExtractKey →
//     MinimizeKey → PlanKey), so two clients phrasing the same work
//     differently — a program by name vs its inlined source, a preset vs
//     its expanded pass list, defaulted vs explicit options — address the
//     same artifacts.
//   - Cross-request singleflight. Identical concurrent submissions are
//     collapsed twice: the server folds whole requests onto one in-flight
//     execution (joiners replay the winner's progress events and share its
//     result), and the store's per-stage singleflight dedupes partial
//     overlaps underneath.
//   - Bounded per-stage pools. The store's gate (pipeline.Gate) admits a
//     bounded number of concurrent computations per stage and queues the
//     rest, so load bursts turn into backpressure instead of a goroutine
//     pile-up.
//
// Results are byte-identical to local single-process runs: a request's
// canonical rendering (Result.Canon) is a pure function of its fingerprint
// key, pinned by the determinism suites underneath and verified end-to-end
// by the serve tests and by bench/, which fails any served op whose result
// digest differs from the local serve.Run golden.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// Request is one unit of service work: a source (MiniC program or prebuilt
// SBF binary), an obfuscation configuration, and the operation to run.
// The zero values of the optional fields mean the pipeline defaults, and
// the canonical request key applies them — a defaulted request and an
// explicitly-defaulted one are the same request.
type Request struct {
	// Op selects the pipeline depth: "count" (the classic gadget scan),
	// "analyze" (extraction + subsumption), or "plan" (analyze + planning
	// + payload construction; the default).
	Op string `json:"op,omitempty"`

	// Program names a built-in benchmark program (server-side lookup);
	// Source is inline MiniC; Binary is a marshaled SBF binary. Exactly
	// one must be set. Name is a display label only and never keyed.
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	Binary  []byte `json:"binary,omitempty"`
	Name    string `json:"name,omitempty"`

	// Obf is the obfuscation spec ("", "llvm", "tigress", or a comma-
	// separated pass list), applied when building from source.
	Obf  string `json:"obf,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// SelfMod, if nonzero, applies the post-link self-modification
	// transform with this XOR key (x64 builds only).
	SelfMod int `json:"selfmod,omitempty"`

	// ISA selects the code-generation backend for source builds ("x64",
	// "rv64", "rv64c"; empty = x64). Prebuilt binaries carry their own ISA
	// tag and must leave this empty.
	ISA string `json:"isa,omitempty"`

	// Goal scopes the plan op: "execve", "mprotect", "mmap", or "all"
	// (default).
	Goal string `json:"goal,omitempty"`
	// MaxPlans / MaxNodes / TimeoutMS bound the planner (0 = defaults).
	MaxPlans  int   `json:"max_plans,omitempty"`
	MaxNodes  int   `json:"max_nodes,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SkipVerify accepts solver-concretized payloads without emulation
	// (benchmark arms only).
	SkipVerify bool `json:"skip_verify,omitempty"`
}

// The request operations.
const (
	OpCount   = "count"
	OpAnalyze = "analyze"
	OpPlan    = "plan"
)

// resolved is a canonicalized request: presets expanded, defaults applied,
// and the request key computed from the store's chained fingerprints.
type resolved struct {
	req    Request
	prog   benchprog.Program
	binary []byte // marshaled SBF when the request carries a binary
	passes []obfuscate.Pass
	isa    string // canonical backend name the analysis runs under
	goals  []planner.Goal
	popts  planner.Options
	key    string
}

// payload concretization parameters — the service always uses the core
// defaults (they are part of the plan-stage fingerprint).
const (
	payloadBase = 0x7FFF_8000
	verifySteps = 100_000
)

// resolve canonicalizes the request and derives its key. The key chains
// exactly like the store's stage keys: build fingerprint (source, ordered
// pass names, seed — or binary content hash), then the op-specific
// fingerprints of every stage the op runs, with option defaults applied by
// the same Fingerprint() renderings the store uses.
func (r Request) resolve() (*resolved, error) {
	rr := &resolved{req: r}
	if rr.req.Op == "" {
		rr.req.Op = OpPlan
	}
	switch rr.req.Op {
	case OpCount, OpAnalyze, OpPlan:
	default:
		return nil, fmt.Errorf("serve: unknown op %q", r.Op)
	}

	set := 0
	for _, ok := range []bool{r.Program != "", r.Source != "", len(r.Binary) > 0} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("serve: need exactly one of program, source, binary")
	}

	if _, ok := isa.ByName(r.ISA); !ok {
		return nil, fmt.Errorf("serve: unknown isa %q", r.ISA)
	}
	rr.isa = isa.CanonicalISA(r.ISA)

	var base string
	if len(r.Binary) > 0 {
		if r.Obf != "" {
			return nil, fmt.Errorf("serve: obfuscation applies to source builds, not prebuilt binaries")
		}
		if r.ISA != "" {
			return nil, fmt.Errorf("serve: prebuilt binaries carry their own ISA tag; leave isa empty")
		}
		peek, err := sbf.Unmarshal(r.Binary)
		if err != nil {
			return nil, fmt.Errorf("serve: bad binary: %w", err)
		}
		rr.isa = isa.CanonicalISA(peek.ISA)
		sum := sha256.Sum256(r.Binary)
		rr.binary = r.Binary
		base = "bin:" + hex.EncodeToString(sum[:16])
	} else {
		rr.prog = benchprog.Program{Name: r.Name, Source: r.Source}
		if r.Program != "" {
			p, ok := benchprog.ByName(r.Program)
			if !ok {
				return nil, fmt.Errorf("serve: unknown program %q", r.Program)
			}
			rr.prog = p
		}
		if rr.prog.Name == "" {
			rr.prog.Name = "request"
		}
		passes, err := obfuscate.ParseSpec(r.Obf)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		rr.passes = passes
		names := make([]string, len(passes))
		for i, p := range passes {
			names[i] = p.Name()
		}
		base = pipeline.BuildKeyISA(rr.prog.Source, names, r.Seed, rr.isa)
	}
	if r.SelfMod != 0 {
		if rr.isa != isa.DefaultISA {
			return nil, fmt.Errorf("serve: selfmod is an x64-only transform (isa %q)", rr.isa)
		}
		base = pipeline.EncodeKey(base, byte(r.SelfMod))
	}

	switch rr.req.Op {
	case OpCount:
		rr.key = pipeline.CountKeyISA(base, 0, rr.isa)
	case OpAnalyze, OpPlan:
		poolKey := pipeline.MinimizeKey(
			pipeline.ExtractKey(base, gadget.Options{ISA: rr.isa}), subsume.Options{})
		rr.key = poolKey
		if rr.req.Op == OpPlan {
			goals, err := goalsFor(r.Goal, rr.isa)
			if err != nil {
				return nil, err
			}
			rr.goals = goals
			rr.popts = planner.Options{
				MaxPlans: r.MaxPlans,
				MaxNodes: r.MaxNodes,
				Timeout:  time.Duration(r.TimeoutMS) * time.Millisecond,
			}
			names := make([]string, len(goals))
			for i, g := range goals {
				names[i] = g.Name
			}
			rr.key = fmt.Sprintf("%s|goals:%s|p:%s|base=%#x,steps=%d,verify=%t",
				poolKey, strings.Join(names, ","), rr.popts.Fingerprint(),
				uint64(payloadBase), verifySteps, !r.SkipVerify)
		}
	}
	return rr, nil
}

// Key returns the request's canonical fingerprint key (see resolve).
func (r Request) Key() (string, error) {
	rr, err := r.resolve()
	if err != nil {
		return "", err
	}
	return rr.key, nil
}

func goalsFor(name, isaName string) ([]planner.Goal, error) {
	all := planner.GoalsForISA(isaName)
	switch name {
	case "", "all":
		return all, nil
	}
	for _, g := range all {
		if g.Name == name {
			return []planner.Goal{g}, nil
		}
	}
	return nil, fmt.Errorf("serve: unknown goal %q", name)
}

// StageEvent is one streamed progress record: a pipeline stage finished
// (or was served from the store) for this request. Millis is the stage's
// original compute cost — a cached stage reports the recorded cost, like
// core.StageTiming.
type StageEvent struct {
	Stage      string  `json:"stage"`
	Cached     bool    `json:"cached"`
	Millis     float64 `json:"ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// CountRow is one gadget-class count (the count op's rows, in canonical
// class order).
type CountRow struct {
	Class string `json:"class"`
	Count int    `json:"count"`
}

// PayloadResult is one verified payload. SHA256 fingerprints the payload
// bytes for identity checks; Data carries them for clients that dump.
type PayloadResult struct {
	Bytes   int    `json:"bytes"`
	Gadgets int    `json:"gadgets"`
	SHA256  string `json:"sha256"`
	Base    uint64 `json:"base"`
	Entry   uint64 `json:"entry"`
	Data    []byte `json:"data,omitempty"`
}

// GoalResult is one goal's planning outcome.
type GoalResult struct {
	Goal     string          `json:"goal"`
	Plans    int             `json:"plans"`
	Payloads []PayloadResult `json:"payloads"`
	Search   string          `json:"search"`
}

// Result is a request's outcome. Everything except Stages is a
// deterministic function of the request key — Canon renders exactly that
// deterministic part, and it is the unit of the byte-identity guarantees.
type Result struct {
	Key       string `json:"key"`
	Op        string `json:"op"`
	Name      string `json:"name,omitempty"`
	TextBytes int    `json:"text_bytes"`

	// Count op.
	Counts  []CountRow `json:"counts,omitempty"`
	Gadgets int        `json:"gadgets,omitempty"`

	// Analyze / plan ops.
	RawPool int          `json:"raw_pool,omitempty"`
	Pool    int          `json:"pool,omitempty"`
	Subsume string       `json:"subsume,omitempty"`
	Goals   []GoalResult `json:"goals,omitempty"`

	// Stages is the progress trail (timing; excluded from Canon).
	Stages []StageEvent `json:"stages,omitempty"`
	// Wall is the serving process's wall-bucket snapshot at response time
	// (telemetry; excluded from Canon). The server streams it as its own
	// JSONL event and the client attaches it here; local Run leaves it nil.
	Wall []pipeline.WallBucketStat `json:"wall,omitempty"`
}

// Canon renders the result's deterministic content: the canonical bytes a
// request must produce identically whether computed locally, served cold,
// or served warm from any tier of the shared store, at any concurrency.
func (r *Result) Canon() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "key %s\nop %s text=%d\n", r.Key, r.Op, r.TextBytes)
	if r.Op == OpCount {
		fmt.Fprintf(&sb, "gadgets %d\n", r.Gadgets)
		for _, c := range r.Counts {
			fmt.Fprintf(&sb, "  %-8s %7d\n", c.Class, c.Count)
		}
		return sb.String()
	}
	fmt.Fprintf(&sb, "pool raw=%d min=%d\n%s\n", r.RawPool, r.Pool, r.Subsume)
	for _, g := range r.Goals {
		fmt.Fprintf(&sb, "goal %s: plans=%d payloads=%d (%s)\n",
			g.Goal, g.Plans, len(g.Payloads), g.Search)
		for i, p := range g.Payloads {
			fmt.Fprintf(&sb, "  payload %d: %d bytes, %d gadgets, entry=%#x, sha256=%s\n",
				i+1, p.Bytes, p.Gadgets, p.Entry, p.SHA256)
		}
	}
	return sb.String()
}

// countClasses is the canonical gadget-class order for count rows (the
// same order cmd/gadgetcount reports).
var countClasses = []gadget.JmpType{
	gadget.TypeReturn, gadget.TypeUDJ, gadget.TypeUIJ,
	gadget.TypeCDJ, gadget.TypeCIJ, gadget.TypeSyscall,
}

// CountRows orders a gadget-count map into canonical rows.
func CountRows(counts map[gadget.JmpType]int) []CountRow {
	rows := make([]CountRow, 0, len(countClasses))
	for _, t := range countClasses {
		rows = append(rows, CountRow{Class: t.String(), Count: counts[t]})
	}
	// Defensive: any class outside the canonical list lands at the end in
	// name order, so the rendering stays deterministic.
	var extra []CountRow
	for t, n := range counts {
		known := false
		for _, c := range countClasses {
			if t == c {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, CountRow{Class: t.String(), Count: n})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Class < extra[j].Class })
	return append(rows, extra...)
}
