package gadget

import (
	"fmt"
	"maps"
	"runtime"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/par"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Options tune extraction.
type Options struct {
	// ISA selects the instruction-set backend ("x64", "rv64", "rv64c").
	// Empty means the default x64 backend.
	ISA string
	// MaxInsts caps the instruction count along one gadget path (including
	// merged pieces). Default 40 — the spill-style code generator produces
	// long basic blocks, and useful register loads sit well before the
	// block terminator.
	MaxInsts int
	// MaxForks caps how many conditional jumps a path may pass through.
	// Default 2.
	MaxForks int
	// MaxMerges caps how many direct jumps a path may follow. Default 3.
	MaxMerges int
	// Parallelism is how many workers scan section shards concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 scans single-threaded. The result
	// is identical at every worker count: shard boundaries and the merge
	// order depend only on the binary and the backend, never on scheduling.
	Parallelism int
}

// Fingerprint renders the options' semantic fields canonically (defaults
// applied) for content-addressed artifact keys: two Options values with the
// same fingerprint produce byte-identical pools. Parallelism is excluded —
// extraction results are identical at every worker count. The stride is
// the backend's decode stride, a function of the ISA, kept in the string
// so every stored key stays valid.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	fp := fmt.Sprintf("insts=%d,forks=%d,merges=%d,stride=%d",
		o.MaxInsts, o.MaxForks, o.MaxMerges, o.backend().Stride())
	// The backend joins the fingerprint only when it is not the default, so
	// every pre-multi-ISA x64 key string — and the warm caches addressed by
	// them — stays valid byte-for-byte.
	if name := isa.CanonicalISA(o.ISA); name != isa.DefaultISA {
		fp += ",isa=" + name
	}
	return fp
}

// backend resolves the options' ISA field; unknown names fall back to the
// default backend (callers validate names at the CLI boundary).
func (o Options) backend() isa.Backend {
	be, ok := isa.ByName(o.ISA)
	if !ok {
		return isa.X64
	}
	return be
}

// defaultMaxInsts is Options.MaxInsts when the caller leaves it 0.
const defaultMaxInsts = 40

func (o Options) withDefaults() Options {
	if o.MaxInsts == 0 {
		o.MaxInsts = defaultMaxInsts
	}
	if o.MaxForks == 0 {
		o.MaxForks = 2
	}
	if o.MaxMerges == 0 {
		o.MaxMerges = 3
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// chunkStrides is how many scan offsets one extraction shard covers. The
// chunk size is fixed (not derived from the worker count) so the shard
// partition — and with it the merge order and every interned node identity —
// is the same no matter how many workers run.
const chunkStrides = 2048

// shardJob is one contiguous scan range [lo, hi) of a section's bytes.
type shardJob struct {
	sec    *sbf.Section
	lo, hi int
}

// shard is one worker unit's output: gadgets whose effects live in the
// shard's private builder, plus local statistics. The executor is the
// shard's reusable symbolic-execution cursor.
type shard struct {
	b       *expr.Builder
	ex      *symex.Executor
	gadgets []*Gadget
	stats   Stats
}

// Extract scans every executable byte offset of bin, walks gadget paths
// (forking at conditional jumps, merging across direct jumps), runs symbolic
// execution on each, and returns the pool of usable gadgets.
//
// Every section is first decoded once into a shared read-only predecode
// Table and all path walks chain through it, so each code byte is decoded
// once no matter how many paths cross it, and a walk that cannot reach a
// control transfer within MaxInsts instructions stops before its first
// step.
//
// The scan is sharded across Options.Parallelism workers. Each worker
// symbolically executes its shard into a private expr.Builder; shards are
// then merged in shard order, re-interning every effect DAG into the pool's
// builder via expr.Import, so the pooled effects satisfy the same
// pointer-equality invariant a sequential scan would produce.
func Extract(bin *sbf.Binary, opts Options) *Pool {
	opts = opts.withDefaults()
	be := opts.backend()
	tab := predecode(bin, opts.Parallelism, be, opts.MaxInsts)

	// Every backend-stride-th byte offset is a potential gadget start: 1 on
	// x64 (every offset, finding unaligned gadgets), 4 on rv64, 2 on rv64c.
	stride := be.Stride()
	var jobs []shardJob
	chunkBytes := stride * chunkStrides
	for _, sec := range bin.ExecSections() {
		for lo := 0; lo < len(sec.Data); lo += chunkBytes {
			jobs = append(jobs, shardJob{sec: sec, lo: lo, hi: min(lo+chunkBytes, len(sec.Data))})
		}
	}

	shards := make([]*shard, len(jobs))
	par.For(opts.Parallelism, len(jobs), func(i int) {
		shards[i] = scanShard(tab, jobs[i], opts, stride)
	})

	// Merge in shard order: statistics sum, and each shard's effect DAGs are
	// re-interned into the pool builder. Both the shard sequence and the
	// field order inside effectImporter are fixed, so node identities in the
	// merged builder are deterministic.
	b := expr.NewBuilder()
	stats := Stats{ByType: make(map[JmpType]int)}
	imp := newEffectImporter(b)
	var all []*Gadget
	for _, sh := range shards {
		stats.merge(sh.stats)
		for _, g := range sh.gadgets {
			g.Effect = imp.effect(g.Effect)
		}
		all = append(all, sh.gadgets...)
	}
	// Deterministic pool order regardless of sharding: by (addr, len), with
	// the stable sort preserving the walk's emission order for equal keys.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Location != all[j].Location {
			return all[i].Location < all[j].Location
		}
		return all[i].Len < all[j].Len
	})
	for _, g := range all {
		fillRecord(g, be)
	}
	return NewPool(b, be.Name(), all, stats)
}

// scanShard scans one job's offsets into a fresh shard.
func scanShard(tab *Table, job shardJob, opts Options, stride int) *shard {
	sh := &shard{
		b:     expr.NewBuilder(),
		stats: Stats{ByType: make(map[JmpType]int)},
	}
	sh.ex = symex.NewExecutorISA(sh.b, opts.backend())
	w := &walker{tab: tab, opts: opts, sh: sh}
	root := w.getBuf()
	for off := job.lo; off < job.hi; off += stride {
		sh.stats.ScannedOffsets++
		w.start = job.sec.Addr + uint64(off)
		w.marks, w.failAt = w.marks[:0], -1
		w.walk(w.start, root[:0])
	}
	return sh
}

// effectImporter re-interns effect DAGs into a destination builder. It
// holds the offset-sort scratch across effects, so the per-effect
// allocations are only the maps and slices that escape into the imported
// effect itself.
type effectImporter struct {
	imp  *expr.Importer
	offs []int64
}

func newEffectImporter(b *expr.Builder) *effectImporter {
	return &effectImporter{imp: expr.NewImporter(b)}
}

// effect re-interns an effect's DAGs into the importer's destination
// builder. Fields are visited in a fixed order (registers, next RIP, stack
// writes by ascending offset, memory accesses, conditions) so the
// destination's interning order is deterministic. Empty stack-write and
// input maps stay nil — most gadgets touch no stack slot, and consumers
// only range over or index these maps.
func (ei *effectImporter) effect(e *symex.Effect) *symex.Effect {
	out := &symex.Effect{
		StackDelta: e.StackDelta,
		End:        e.End,
	}
	out.Regs = make([]*expr.Node, len(e.Regs))
	for r := range e.Regs {
		out.Regs[r] = ei.imp.Import(e.Regs[r])
	}
	out.NextRIP = ei.imp.Import(e.NextRIP)
	if len(e.StackWrites) > 0 {
		offs := ei.offs[:0]
		for off := range e.StackWrites {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		ei.offs = offs
		out.StackWrites = make(map[int64]symex.Write, len(e.StackWrites))
		for _, off := range offs {
			w := e.StackWrites[off]
			out.StackWrites[off] = symex.Write{Val: ei.imp.Import(w.Val), Size: w.Size}
		}
	}
	if len(e.Inputs) > 0 {
		out.Inputs = make(map[int64]uint8, len(e.Inputs))
		for off, size := range e.Inputs {
			out.Inputs[off] = size
		}
	}
	if len(e.MemReads) > 0 {
		out.MemReads = make([]symex.MemAccess, len(e.MemReads))
		for i, a := range e.MemReads {
			out.MemReads[i] = symex.MemAccess{Addr: ei.imp.Import(a.Addr), Val: ei.imp.Import(a.Val), Size: a.Size}
		}
	}
	if len(e.MemWrites) > 0 {
		out.MemWrites = make([]symex.MemAccess, len(e.MemWrites))
		for i, a := range e.MemWrites {
			out.MemWrites[i] = symex.MemAccess{Addr: ei.imp.Import(a.Addr), Val: ei.imp.Import(a.Val), Size: a.Size}
		}
	}
	out.Conds = ei.imp.ImportAll(e.Conds)
	return out
}

// stepRef is one walked path step: a pointer to the instruction's
// predecode-table entry plus the branch direction taken there. Walks copy
// 16-byte refs where symex.Step would copy a whole 88-byte Inst; found
// materializes Steps only for the gadgets it pools.
type stepRef struct {
	in    *isa.Inst
	taken bool
}

// forkMark is the shard executor's state before the fork step at path
// index at.
type forkMark struct {
	at int
	m  symex.Mark
}

// walker enumerates gadget paths from one shard's start offsets. It owns a
// freelist of path buffers (capacity MaxInsts+1, so in-walk appends never
// reallocate) that back both the main path and the copies forked at
// conditional jumps; found copies what it pools, so the buffers recycle
// freely. One walker serves one shard — it is not safe for concurrent use.
//
// Symbolic execution follows the walk's DFS as a cursor over the shard's
// executor. The paths from one start are the leaves of one tree that
// branches only at fork steps, so two consecutive paths share every step
// before the fork where they part. The walker keeps the executor state
// before each fork step it has executed (marks, innermost last) and the
// path index of a prefix step that failed (failAt, -1 for none); when a
// fork's taken subtree returns, cut drops what the not-taken side does not
// share. Steps run only when found needs an effect, in path order, so
// every node request a skipped step would have made was already made by
// the path that ran it: the shard builder interns the same new nodes in
// the same order as a from-scratch run of every path would.
type walker struct {
	tab    *Table
	opts   Options
	sh     *shard
	start  uint64
	free   [][]stepRef
	marks  []forkMark
	failAt int
}

// getBuf returns an empty path buffer with capacity MaxInsts+1.
func (w *walker) getBuf() []stepRef {
	if n := len(w.free) - 1; n >= 0 {
		b := w.free[n]
		w.free = w.free[:n]
		return b[:0]
	}
	return make([]stepRef, 0, w.opts.MaxInsts+1)
}

// putBuf returns a buffer to the freelist once the fork that borrowed it
// has been fully explored.
func (w *walker) putBuf(b []stepRef) { w.free = append(w.free, b) }

// cut forgets what the walk's next path does not share after the taken
// subtree of the fork at path index i returns: marks past i and a failure
// at or past i. The mark at i stays, as the state before the fork step.
func (w *walker) cut(i int) {
	n := len(w.marks)
	for n > 0 && w.marks[n-1].at > i {
		n--
	}
	w.marks = w.marks[:n]
	if w.failAt >= i {
		w.failAt = -1
	}
}

// found records one complete (branch-terminated) path: the path followed by
// its terminator last. Every path counts as a raw candidate; a path that
// can continue a chain is symbolically executed, and pooled if supported.
// The Table II record fields that depend on builder node identity
// (ClobRegs/CtrlRegs) are filled at merge time, after the effect is
// imported into the pool builder.
func (w *walker) found(path []stepRef, last *isa.Inst, taken bool, end symex.EndKind) {
	sh := w.sh
	hasCond, merged := isCond(last), isMerge(last)
	n := int(last.Len)
	for _, r := range path {
		hasCond = hasCond || isCond(r.in)
		merged = merged || isMerge(r.in)
		n += int(r.in.Len)
	}
	sh.stats.RawCandidates++
	sh.stats.ByType[classify(hasCond, end)]++
	// Paths that end in a direct jump are counted but not pooled: their
	// next-RIP is a constant, so they cannot continue an attacker chain
	// (merged variants of them are walked separately).
	if isCond(last) || isMerge(last) {
		return
	}
	if w.failAt >= 0 {
		sh.stats.Unsupported++
		return
	}
	eff, err := w.exec(path, last, taken)
	if err != nil {
		sh.stats.Unsupported++
		return
	}
	sh.stats.Supported++

	steps := make([]symex.Step, len(path)+1)
	for i, r := range path {
		steps[i] = symex.Step{Inst: *r.in, Taken: r.taken}
	}
	steps[len(path)] = symex.Step{Inst: *last, Taken: taken}
	g := &Gadget{
		Location: w.start,
		Len:      n,
		JmpType:  classify(hasCond, eff.End),
		Steps:    steps,
		Effect:   eff,
		HasCond:  hasCond,
		Merged:   merged,
	}
	if merged {
		sh.stats.MergedGadgets++
	}
	sh.gadgets = append(sh.gadgets, g)
}

// exec symbolically executes a path from the innermost mark, saving a mark
// before each fork step it passes. A failing step before the last is
// remembered in failAt: every path until the cut that forgets it shares
// that step and its prefix, and so fails the same way.
func (w *walker) exec(path []stepRef, last *isa.Inst, taken bool) (*symex.Effect, error) {
	ex := w.sh.ex
	i := 0
	if n := len(w.marks); n > 0 {
		i = w.marks[n-1].at
		ex.Restore(&w.marks[n-1].m)
	} else {
		ex.Reset()
	}
	for ; i < len(path); i++ {
		r := path[i]
		if isCond(r.in) && (len(w.marks) == 0 || w.marks[len(w.marks)-1].at < i) {
			w.save(i)
		}
		if err := ex.Advance(r.in, r.taken); err != nil {
			w.failAt = i
			return nil, err
		}
	}
	return ex.Finish(last, taken)
}

// save pushes a mark at path index i, reusing a popped mark's buffers.
func (w *walker) save(i int) {
	if n := len(w.marks); n < cap(w.marks) {
		w.marks = w.marks[:n+1]
	} else {
		w.marks = append(w.marks, forkMark{})
	}
	m := &w.marks[len(w.marks)-1]
	m.at = i
	w.sh.ex.Save(&m.m)
}

// isCond reports a conditional branch: a fork inside a path, a counted-only
// terminal at its end.
func isCond(in *isa.Inst) bool { return in.Op == isa.OpJcc || in.Op == isa.OpBcc }

// isMerge reports a direct jump: merged inside a path, a counted-only
// terminal at its end.
func isMerge(in *isa.Inst) bool { return in.Op == isa.OpJmp && in.A.Kind == isa.KindImm }

// walk follows one gadget path from addr, invoking found for every complete
// (branch-terminated) path. Instructions come from the shared predecode
// table, which also says how many straight-line instructions lie ahead:
// when those alone would exhaust MaxInsts, or the chain is dead, the walk
// returns before fetching them, as the step-by-step walk would have
// returned after them with nothing found. Straight-line means ClassOther
// here and in the table's runs alike, and traps sit only on dead chains,
// so the cut-off can never skip a path the walk would have taken.
//
// The fork/merge budget is recounted from the path prefix on entry, not
// threaded through the recursion, reproducing the seed walk exactly: in
// particular a merged direct call consumes in-loop merge budget but is not
// recounted when a later fork recurses, so the taken branch regains that
// budget just as it always did. Byte-identity with the seed pool depends on
// this quirk staying put.
func (w *walker) walk(addr uint64, path []stepRef) {
	forks, merges := 0, 0
	for _, r := range path {
		switch {
		case isCond(r.in):
			forks++
		case isMerge(r.in):
			merges++
		}
	}

	for {
		inst, s := w.tab.inst(addr)
		if inst == nil || len(path)+int(s.run) >= w.opts.MaxInsts {
			return
		}

		switch {
		case s.class == isa.ClassOther:
			path = append(path, stepRef{in: inst})
			addr = inst.End()
		case inst.Op == isa.OpRet:
			w.found(path, inst, false, symex.EndRet)
			return
		case inst.Op == isa.OpSyscall:
			w.found(path, inst, false, symex.EndSyscall)
			return
		case inst.Op == isa.OpJmp && inst.A.Kind != isa.KindImm:
			w.found(path, inst, false, symex.EndJmpInd)
			return
		case inst.Op == isa.OpCall && inst.A.Kind != isa.KindImm:
			w.found(path, inst, false, symex.EndCallInd)
			return
		case inst.Op == isa.OpJalr:
			// RISC-V jalr with a non-{x0,ra} link register: indirect jump
			// that also deposits a return address.
			w.found(path, inst, false, symex.EndJmpInd)
			return
		case inst.Op == isa.OpJmp: // direct: merge with the target gadget
			if merges >= w.opts.MaxMerges {
				w.found(path, inst, false, symex.EndJmpDir)
				return
			}
			merges++
			path = append(path, stepRef{in: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpCall: // direct call: follow into the callee
			if merges >= w.opts.MaxMerges {
				return
			}
			merges++
			path = append(path, stepRef{in: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpJal: // RISC-V direct jump-and-link: follow it
			if merges >= w.opts.MaxMerges {
				return
			}
			merges++
			path = append(path, stepRef{in: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpJcc || inst.Op == isa.OpBcc:
			if forks >= w.opts.MaxForks {
				// Report the taken-terminal variant for counting, then stop.
				w.found(path, inst, true, symex.EndJmpDir)
				return
			}
			// Fork: the taken path continues at the target (Fig. 4c), the
			// not-taken path falls through (Fig. 4b). The taken copy lives
			// in a freelist buffer for the duration of its subtree.
			taken := w.getBuf()
			taken = append(taken, path...)
			taken = append(taken, stepRef{in: inst, taken: true})
			w.walk(uint64(inst.A.Imm), taken)
			w.putBuf(taken)
			w.cut(len(path))
			path = append(path, stepRef{in: inst})
			addr = inst.End()
			forks++
		default:
			return // a control transfer the walk has no rule for ends the path unusably
		}
	}
}

// ClonePool deep-copies a pool into a fresh expression builder: every
// gadget record is copied (immutable slices shared) and its effect DAG
// re-interned via expr.Import, walking the gadgets in pool order. NewPool
// rebuilds the indexes in that same order, so the clone is
// indistinguishable from the original to the planner.
//
// Consumers that mutate builder state — payload concretization interns
// fresh nodes for cells, scratch memory, and substitutions — clone per
// consumer so concurrent consumers never share a builder. Because the
// clone is built in a deterministic order, the clone's node identities
// (and everything downstream of them, solver models included) are a
// function of the source pool alone, not of who else used it.
func ClonePool(p *Pool) *Pool {
	b := expr.NewBuilder()
	stats := p.Stats
	stats.ByType = maps.Clone(p.Stats.ByType)
	imp := newEffectImporter(b)
	gadgets := make([]*Gadget, len(p.Gadgets))
	for i, g := range p.Gadgets {
		cg := *g // Steps/ClobRegs/CtrlRegs are shared immutably
		cg.Effect = imp.effect(g.Effect)
		gadgets[i] = &cg
	}
	return NewPool(b, p.ISA, gadgets, stats)
}
