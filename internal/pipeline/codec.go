package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// This file is the stable binary codec for stage artifacts, the layer the
// disk tier (disk.go) stands on. Every encoder is deterministic — map keys
// are sorted, slices keep their pool/plan order — so encoding the same
// artifact twice yields identical bytes, and a re-encoded decode is
// byte-identical to the original encoding.
//
// Expression DAGs are serialized as a flat node table in dependency order
// (every argument precedes its user) and decoded by rebuilding raw nodes and
// re-interning them through expr.Importer into a fresh Builder — the same
// re-intern path gadget.ClonePool uses to merge sharded extractions, and the
// reason a decoded pool is interchangeable with a computed one: every
// consumer that plans or concretizes against a pool clones it first, and the
// clone is a pure function of pool content. Effects are traversed in the
// exact field order gadget's importEffect uses (registers, next RIP, sorted
// stack writes, memory accesses, path conditions), so the decoded builder
// interns nodes in the same sequence a native merge would.

var errCorrupt = errors.New("pipeline: corrupt artifact")

// enc is a minimal append-only encoder. All integers are varints (zigzag
// for signed); strings and byte slices are length-prefixed.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) iv(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *enc) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) bytes(p []byte) {
	e.uv(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// dec is the matching bounds-checked decoder. The first malformed read
// latches the bad flag; subsequent reads return zero values, and the caller
// checks once at the end. Checksums are verified before decoding, so a bad
// flag means version skew or a codec bug, and the artifact degrades to a
// cache miss.
type dec struct {
	buf []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }

func (d *dec) u8() uint8 {
	if d.bad || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.u8() == 1 }

func (d *dec) uv() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) iv() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining (every element costs at least one byte), so corrupt lengths
// cannot drive huge allocations.
func (d *dec) count() int {
	v := d.uv()
	if v > uint64(len(d.buf)-d.off) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) str() string { return string(d.take(d.count())) }

func (d *dec) bytes() []byte {
	n := d.count()
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// exprReg assigns table indices to expression nodes in registration order,
// arguments before users. Registration must traverse artifacts in a
// deterministic order (the encoders' field order) so the table — and hence
// the encoding — is byte-stable.
type exprReg struct {
	idx   map[*expr.Node]uint64
	nodes []*expr.Node
}

func newExprReg() *exprReg { return &exprReg{idx: make(map[*expr.Node]uint64)} }

func (r *exprReg) add(n *expr.Node) {
	if n == nil {
		return
	}
	if _, ok := r.idx[n]; ok {
		return
	}
	for _, a := range n.Args {
		r.add(a)
	}
	r.idx[n] = uint64(len(r.nodes))
	r.nodes = append(r.nodes, n)
}

// ref encodes a node reference: 0 for nil, index+1 otherwise.
func (r *exprReg) ref(n *expr.Node) uint64 {
	if n == nil {
		return 0
	}
	return r.idx[n] + 1
}

// regEffect registers an effect's nodes in importEffect's traversal order.
func (r *exprReg) regEffect(e *symex.Effect) {
	for i := range e.Regs {
		r.add(e.Regs[i])
	}
	r.add(e.NextRIP)
	for _, off := range sortedOffsets(e.StackWrites) {
		r.add(e.StackWrites[off].Val)
	}
	for _, a := range e.MemReads {
		r.add(a.Addr)
		r.add(a.Val)
	}
	for _, a := range e.MemWrites {
		r.add(a.Addr)
		r.add(a.Val)
	}
	for _, c := range e.Conds {
		r.add(c)
	}
}

// write serializes the node table. Within a node record, argument references
// are plain indices — arguments always precede their users.
func (r *exprReg) write(e *enc) {
	e.uv(uint64(len(r.nodes)))
	for _, n := range r.nodes {
		e.u8(uint8(n.Kind))
		e.u8(n.Width)
		switch n.Kind {
		case expr.KindConst:
			e.uv(n.Val)
		case expr.KindVar:
			e.str(n.Name)
		default:
			e.u8(uint8(len(n.Args)))
			for _, a := range n.Args {
				e.uv(r.idx[a])
			}
		}
	}
}

// exprTab resolves decoded node references. The raw nodes reconstruct the
// encoded structure verbatim; imp re-interns them into the artifact's fresh
// Builder at first use, in the decoders' (= encoders' = importEffect's)
// traversal order.
type exprTab struct {
	raw []*expr.Node
	imp *expr.Importer
}

// readExprTab reads a node table. A variable's role and index are not
// stored: its name renders them, and symex.ParseVar reads them back, with
// the artifact's backend (nil: any backend) resolving register names.
func readExprTab(d *dec, b *expr.Builder, be isa.Backend) *exprTab {
	n := d.count()
	raw := make([]*expr.Node, 0, n)
	for i := 0; i < n; i++ {
		k := expr.Kind(d.u8())
		nd := &expr.Node{Kind: k, Width: d.u8()}
		switch k {
		case expr.KindConst:
			nd.Val = d.uv()
		case expr.KindVar:
			nd.Name = d.str()
			nd.Role, nd.Val = symex.ParseVar(be, nd.Name)
		default:
			if k <= expr.KindVar || k > expr.KindBNot {
				d.fail()
				return nil
			}
			na := int(d.u8())
			if na < 1 || na > 3 {
				d.fail()
				return nil
			}
			nd.Args = make([]*expr.Node, na)
			for j := 0; j < na; j++ {
				ai := d.uv()
				if d.bad || ai >= uint64(i) {
					d.fail()
					return nil
				}
				nd.Args[j] = raw[ai]
			}
		}
		raw = append(raw, nd)
	}
	return &exprTab{raw: raw, imp: expr.NewImporter(b)}
}

// node reads one reference and imports the raw node into the builder.
func (t *exprTab) node(d *dec) *expr.Node {
	r := d.uv()
	if r == 0 {
		return nil
	}
	if t == nil || r > uint64(len(t.raw)) {
		d.fail()
		return nil
	}
	return t.imp.Import(t.raw[r-1])
}

func sortedOffsets[V any](m map[int64]V) []int64 {
	offs := make([]int64, 0, len(m))
	for off := range m {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

func writeEffect(e *enc, r *exprReg, eff *symex.Effect) {
	e.uv(uint64(len(eff.Regs)))
	for i := range eff.Regs {
		e.uv(r.ref(eff.Regs[i]))
	}
	e.uv(r.ref(eff.NextRIP))
	wOffs := sortedOffsets(eff.StackWrites)
	e.uv(uint64(len(wOffs)))
	for _, off := range wOffs {
		w := eff.StackWrites[off]
		e.iv(off)
		e.u8(w.Size)
		e.uv(r.ref(w.Val))
	}
	iOffs := sortedOffsets(eff.Inputs)
	e.uv(uint64(len(iOffs)))
	for _, off := range iOffs {
		e.iv(off)
		e.u8(eff.Inputs[off])
	}
	e.iv(eff.StackDelta)
	for _, accs := range [2][]symex.MemAccess{eff.MemReads, eff.MemWrites} {
		e.uv(uint64(len(accs)))
		for _, a := range accs {
			e.uv(r.ref(a.Addr))
			e.uv(r.ref(a.Val))
			e.u8(a.Size)
		}
	}
	e.uv(uint64(len(eff.Conds)))
	for _, c := range eff.Conds {
		e.uv(r.ref(c))
	}
	e.u8(uint8(eff.End))
}

func readEffect(d *dec, t *exprTab) *symex.Effect {
	eff := &symex.Effect{}
	nr := d.count()
	if nr > isa.MaxRegs {
		d.fail()
		return eff
	}
	eff.Regs = make([]*expr.Node, nr)
	for i := range eff.Regs {
		eff.Regs[i] = t.node(d)
	}
	eff.NextRIP = t.node(d)
	nw := d.count()
	eff.StackWrites = make(map[int64]symex.Write, nw)
	for i := 0; i < nw; i++ {
		off := d.iv()
		size := d.u8()
		eff.StackWrites[off] = symex.Write{Val: t.node(d), Size: size}
	}
	ni := d.count()
	eff.Inputs = make(map[int64]uint8, ni)
	for i := 0; i < ni; i++ {
		off := d.iv()
		eff.Inputs[off] = d.u8()
	}
	eff.StackDelta = d.iv()
	for k := 0; k < 2; k++ {
		na := d.count()
		var accs []symex.MemAccess
		if na > 0 {
			accs = make([]symex.MemAccess, na)
			for i := range accs {
				accs[i] = symex.MemAccess{Addr: t.node(d), Val: t.node(d), Size: d.u8()}
			}
		}
		if k == 0 {
			eff.MemReads = accs
		} else {
			eff.MemWrites = accs
		}
	}
	nc := d.count()
	if nc > 0 {
		eff.Conds = make([]*expr.Node, nc)
		for i := range eff.Conds {
			eff.Conds[i] = t.node(d)
		}
	}
	eff.End = symex.EndKind(d.u8())
	return eff
}

func writeOperand(e *enc, o isa.Operand) {
	e.u8(uint8(o.Kind))
	switch o.Kind {
	case isa.KindReg:
		e.u8(uint8(o.Reg))
	case isa.KindImm:
		e.iv(o.Imm)
	case isa.KindMem:
		m := o.Mem
		e.u8(uint8(m.Base))
		e.u8(uint8(m.Index))
		e.u8(m.Scale)
		e.iv(int64(m.Disp))
		var f uint8
		if m.HasBase {
			f |= 1
		}
		if m.HasIndex {
			f |= 2
		}
		if m.RIPRel {
			f |= 4
		}
		e.u8(f)
	}
}

func readOperand(d *dec) isa.Operand {
	var o isa.Operand
	o.Kind = isa.OperandKind(d.u8())
	switch o.Kind {
	case isa.KindNone:
	case isa.KindReg:
		o.Reg = isa.Reg(d.u8())
	case isa.KindImm:
		o.Imm = d.iv()
	case isa.KindMem:
		o.Mem.Base = isa.Reg(d.u8())
		o.Mem.Index = isa.Reg(d.u8())
		o.Mem.Scale = d.u8()
		o.Mem.Disp = int32(d.iv())
		f := d.u8()
		o.Mem.HasBase = f&1 != 0
		o.Mem.HasIndex = f&2 != 0
		o.Mem.RIPRel = f&4 != 0
	default:
		d.fail()
	}
	return o
}

func writeInst(e *enc, in isa.Inst) {
	e.u8(uint8(in.Op))
	e.u8(uint8(in.Cond))
	e.u8(in.Size)
	writeOperand(e, in.A)
	writeOperand(e, in.B)
	writeOperand(e, in.C)
	e.uv(in.Addr)
	e.u8(in.Len)
}

func readInst(d *dec) isa.Inst {
	var in isa.Inst
	in.Op = isa.Op(d.u8())
	in.Cond = isa.Cond(d.u8())
	in.Size = d.u8()
	in.A = readOperand(d)
	in.B = readOperand(d)
	in.C = readOperand(d)
	in.Addr = d.uv()
	in.Len = d.u8()
	return in
}

func writeGadget(e *enc, r *exprReg, g *gadget.Gadget) {
	e.uv(uint64(g.ID))
	e.uv(g.Location)
	e.uv(uint64(g.Len))
	e.u8(uint8(g.JmpType))
	e.bool(g.Merged)
	e.bool(g.HasCond)
	e.uv(uint64(len(g.Steps)))
	for _, st := range g.Steps {
		writeInst(e, st.Inst)
		e.bool(st.Taken)
	}
	writeEffect(e, r, g.Effect)
	e.uv(uint64(len(g.ClobRegs)))
	for _, reg := range g.ClobRegs {
		e.u8(uint8(reg))
	}
	e.uv(uint64(len(g.CtrlRegs)))
	for _, reg := range g.CtrlRegs {
		e.u8(uint8(reg))
	}
}

func readGadget(d *dec, t *exprTab) *gadget.Gadget {
	g := &gadget.Gadget{
		ID:       int(d.uv()),
		Location: d.uv(),
		Len:      int(d.uv()),
		JmpType:  gadget.JmpType(d.u8()),
		Merged:   d.bool(),
		HasCond:  d.bool(),
	}
	ns := d.count()
	g.Steps = make([]symex.Step, ns)
	for i := range g.Steps {
		g.Steps[i] = symex.Step{Inst: readInst(d), Taken: d.bool()}
	}
	g.Effect = readEffect(d, t)
	nc := d.count()
	if nc > 0 {
		g.ClobRegs = make([]isa.Reg, nc)
		for i := range g.ClobRegs {
			g.ClobRegs[i] = isa.Reg(d.u8())
		}
	}
	nt := d.count()
	if nt > 0 {
		g.CtrlRegs = make([]isa.Reg, nt)
		for i := range g.CtrlRegs {
			g.CtrlRegs[i] = isa.Reg(d.u8())
		}
	}
	return g
}

func writePoolStats(e *enc, s gadget.Stats) {
	e.uv(uint64(s.ScannedOffsets))
	e.uv(uint64(s.RawCandidates))
	e.uv(uint64(s.Supported))
	e.uv(uint64(s.Unsupported))
	e.uv(uint64(s.MergedGadgets))
	types := make([]gadget.JmpType, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	e.uv(uint64(len(types)))
	for _, t := range types {
		e.u8(uint8(t))
		e.uv(uint64(s.ByType[t]))
	}
}

func readPoolStats(d *dec) gadget.Stats {
	s := gadget.Stats{
		ScannedOffsets: int(d.uv()),
		RawCandidates:  int(d.uv()),
		Supported:      int(d.uv()),
		Unsupported:    int(d.uv()),
		MergedGadgets:  int(d.uv()),
	}
	n := d.count()
	s.ByType = make(map[gadget.JmpType]int, n)
	for i := 0; i < n; i++ {
		t := gadget.JmpType(d.u8())
		s.ByType[t] = int(d.uv())
	}
	return s
}

func writePool(e *enc, p *gadget.Pool) {
	e.str(p.ISA)
	r := newExprReg()
	for _, g := range p.Gadgets {
		r.regEffect(g.Effect)
	}
	r.write(e)
	e.uv(uint64(len(p.Gadgets)))
	for _, g := range p.Gadgets {
		writeGadget(e, r, g)
	}
	writePoolStats(e, p.Stats)
}

// readPool rebuilds the pool around a fresh builder through
// gadget.NewPool, which rebuilds the ByReg/Syscalls indexes. Pools are
// written in ID order, so a gadget whose ID is not its position is corrupt.
func readPool(d *dec) *gadget.Pool {
	isaName := d.str()
	be, ok := isa.ByName(isaName)
	if !ok {
		d.fail()
		return nil
	}
	b := expr.NewBuilder()
	t := readExprTab(d, b, be)
	n := d.count()
	gadgets := make([]*gadget.Gadget, n)
	for i := range gadgets {
		if d.bad {
			return nil
		}
		if gadgets[i] = readGadget(d, t); gadgets[i].ID != i {
			d.fail()
			return nil
		}
	}
	return gadget.NewPool(b, isaName, gadgets, readPoolStats(d))
}

func writeSubsumeStats(e *enc, s subsume.Stats) {
	e.uv(uint64(s.Before))
	e.uv(uint64(s.After))
	e.uv(uint64(s.RemovedIdent))
	e.uv(uint64(s.RemovedProved))
	e.uv(uint64(s.SolverQueries))
	e.uv(uint64(s.CacheHits))
	e.uv(uint64(s.EvalRefuted))
	e.uv(uint64(s.WitnessRefuted))
	e.uv(uint64(s.Blasted))
	e.uv(uint64(s.Buckets))
}

func readSubsumeStats(d *dec) subsume.Stats {
	return subsume.Stats{
		Before:         int(d.uv()),
		After:          int(d.uv()),
		RemovedIdent:   int(d.uv()),
		RemovedProved:  int(d.uv()),
		SolverQueries:  int64(d.uv()),
		CacheHits:      int64(d.uv()),
		EvalRefuted:    int64(d.uv()),
		WitnessRefuted: int64(d.uv()),
		Blasted:        int64(d.uv()),
		Buckets:        int(d.uv()),
	}
}

func writeCount(e *enc, m map[gadget.JmpType]int) {
	types := make([]gadget.JmpType, 0, len(m))
	for t := range m {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	e.uv(uint64(len(types)))
	for _, t := range types {
		e.u8(uint8(t))
		e.uv(uint64(m[t]))
	}
}

func readCount(d *dec) map[gadget.JmpType]int {
	n := d.count()
	m := make(map[gadget.JmpType]int, n)
	for i := 0; i < n; i++ {
		t := gadget.JmpType(d.u8())
		m[t] = int(d.uv())
	}
	return m
}

func writeSpec(e *enc, s planner.ValueSpec) {
	e.u8(uint8(s.Kind))
	e.uv(s.Value)
	e.bytes(s.Data)
}

func readSpec(d *dec) planner.ValueSpec {
	return planner.ValueSpec{
		Kind:  planner.SpecKind(d.u8()),
		Value: d.uv(),
		Data:  d.bytes(),
	}
}

func writeGoal(e *enc, g planner.Goal) {
	e.str(g.Name)
	regs := make([]isa.Reg, 0, len(g.Regs))
	for r := range g.Regs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	e.uv(uint64(len(regs)))
	for _, r := range regs {
		e.u8(uint8(r))
		writeSpec(e, g.Regs[r])
	}
}

func readGoal(d *dec) planner.Goal {
	g := planner.Goal{Name: d.str()}
	n := d.count()
	g.Regs = make(map[isa.Reg]planner.ValueSpec, n)
	for i := 0; i < n; i++ {
		r := isa.Reg(d.u8())
		g.Regs[r] = readSpec(d)
	}
	return g
}

func writePlan(e *enc, r *exprReg, gidx map[*gadget.Gadget]uint64, p *planner.Plan) {
	e.uv(uint64(len(p.Steps)))
	for _, st := range p.Steps {
		e.iv(int64(st.ID))
		if st.G == nil {
			e.uv(0)
		} else {
			e.uv(gidx[st.G] + 1)
		}
	}
	e.uv(uint64(len(p.Order)))
	for _, o := range p.Order {
		e.iv(int64(o[0]))
		e.iv(int64(o[1]))
	}
	e.uv(uint64(len(p.Links)))
	for _, l := range p.Links {
		e.iv(int64(l.Producer))
		e.iv(int64(l.Consumer))
		e.u8(uint8(l.Reg))
		writeSpec(e, l.Spec)
	}
	e.uv(uint64(len(p.Open)))
	for _, q := range p.Open {
		e.iv(int64(q.Step))
		e.u8(uint8(q.Reg))
		writeSpec(e, q.Spec)
	}
	e.uv(uint64(len(p.Demands)))
	for _, dm := range p.Demands {
		e.iv(int64(dm.Step))
		e.uv(r.ref(dm.Expr))
		writeSpec(e, dm.Spec)
	}
	e.iv(int64(p.GoalStep()))
}

func readPlan(d *dec, t *exprTab, glist []*gadget.Gadget) *planner.Plan {
	ns := d.count()
	steps := make([]planner.Step, ns)
	for i := range steps {
		steps[i].ID = int(d.iv())
		ref := d.uv()
		if ref > 0 {
			if ref > uint64(len(glist)) {
				d.fail()
				return nil
			}
			steps[i].G = glist[ref-1]
		}
	}
	no := d.count()
	order := make([][2]int, no)
	for i := range order {
		order[i] = [2]int{int(d.iv()), int(d.iv())}
	}
	nl := d.count()
	links := make([]planner.Link, nl)
	for i := range links {
		links[i] = planner.Link{
			Producer: int(d.iv()),
			Consumer: int(d.iv()),
			Reg:      isa.Reg(d.u8()),
			Spec:     readSpec(d),
		}
	}
	nq := d.count()
	var open []planner.Requirement
	if nq > 0 {
		open = make([]planner.Requirement, nq)
		for i := range open {
			open[i] = planner.Requirement{
				Step: int(d.iv()),
				Reg:  isa.Reg(d.u8()),
				Spec: readSpec(d),
			}
		}
	}
	nd := d.count()
	var demands []planner.SlotDemand
	if nd > 0 {
		demands = make([]planner.SlotDemand, nd)
		for i := range demands {
			demands[i] = planner.SlotDemand{
				Step: int(d.iv()),
				Expr: t.node(d),
				Spec: readSpec(d),
			}
		}
	}
	return planner.RestorePlan(steps, order, links, open, demands, int(d.iv()))
}

func writeResult(e *enc, r planner.Result) {
	e.uv(uint64(r.Expanded))
	e.uv(uint64(r.Generated))
	e.uv(uint64(r.Rejected))
	e.uv(uint64(r.TruncatedSeeds))
	e.uv(uint64(r.Batches))
	e.uv(uint64(r.CacheHits))
	e.uv(uint64(r.CacheMisses))
}

func readResult(d *dec) planner.Result {
	return planner.Result{
		Expanded:       int(d.uv()),
		Generated:      int(d.uv()),
		Rejected:       int(d.uv()),
		TruncatedSeeds: int(d.uv()),
		Batches:        int(d.uv()),
		CacheHits:      int64(d.uv()),
		CacheMisses:    int64(d.uv()),
	}
}

// writeAttack serializes a plan-stage artifact. Plans and payload chains
// reference gadgets from the attack's private cloned pool; they are written
// once, in first-use order, sharing one expression table with the plans'
// slot-demand expressions.
func writeAttack(e *enc, a *Attack) {
	gidx := make(map[*gadget.Gadget]uint64)
	var glist []*gadget.Gadget
	collect := func(g *gadget.Gadget) {
		if g == nil {
			return
		}
		if _, ok := gidx[g]; !ok {
			gidx[g] = uint64(len(glist))
			glist = append(glist, g)
		}
	}
	for _, p := range a.Plans {
		for _, st := range p.Steps {
			collect(st.G)
		}
	}
	for _, pl := range a.Payloads {
		for _, g := range pl.Chain {
			collect(g)
		}
	}
	r := newExprReg()
	for _, g := range glist {
		r.regEffect(g.Effect)
	}
	for _, p := range a.Plans {
		for _, dm := range p.Demands {
			r.add(dm.Expr)
		}
	}
	r.write(e)
	e.uv(uint64(len(glist)))
	for _, g := range glist {
		writeGadget(e, r, g)
	}
	writeGoal(e, a.Goal)
	e.uv(uint64(len(a.Plans)))
	for _, p := range a.Plans {
		writePlan(e, r, gidx, p)
	}
	e.uv(uint64(len(a.Payloads)))
	for _, pl := range a.Payloads {
		e.bytes(pl.Bytes)
		e.uv(pl.Base)
		e.uv(pl.Entry)
		e.uv(uint64(len(pl.Chain)))
		for _, g := range pl.Chain {
			e.uv(gidx[g])
		}
	}
	writeResult(e, a.Search)
	e.uv(uint64(a.ConcretizeFailures))
}

func readAttack(d *dec) *Attack {
	b := expr.NewBuilder()
	t := readExprTab(d, b, nil)
	ng := d.count()
	glist := make([]*gadget.Gadget, ng)
	for i := range glist {
		if d.bad {
			return nil
		}
		glist[i] = readGadget(d, t)
	}
	a := &Attack{Goal: readGoal(d)}
	np := d.count()
	for i := 0; i < np; i++ {
		if d.bad {
			return nil
		}
		a.Plans = append(a.Plans, readPlan(d, t, glist))
	}
	npl := d.count()
	for i := 0; i < npl; i++ {
		if d.bad {
			return nil
		}
		pl := &payload.Payload{
			Bytes: d.bytes(),
			Base:  d.uv(),
			Entry: d.uv(),
			Goal:  a.Goal,
		}
		nc := d.count()
		pl.Chain = make([]*gadget.Gadget, nc)
		for j := range pl.Chain {
			ref := d.uv()
			if ref >= uint64(len(glist)) {
				d.fail()
				return nil
			}
			pl.Chain[j] = glist[ref]
		}
		a.Payloads = append(a.Payloads, pl)
	}
	a.Search = readResult(d)
	a.Search.Plans = a.Plans
	a.ConcretizeFailures = int(d.uv())
	return a
}

// encodeArtifact serializes one stage artifact. The bool result is false
// for values the codec does not cover (unknown stages or types), which the
// disk tier treats as "do not persist".
func encodeArtifact(st Stage, v any) ([]byte, bool) {
	e := &enc{}
	switch st {
	case StageBuild, StageEncode:
		bin, ok := v.(*sbf.Binary)
		if !ok || bin == nil {
			return nil, false
		}
		e.bytes(bin.Marshal())
	case StageCount:
		m, ok := v.(map[gadget.JmpType]int)
		if !ok {
			return nil, false
		}
		writeCount(e, m)
	case StageExtract:
		p, ok := v.(*gadget.Pool)
		if !ok || p == nil {
			return nil, false
		}
		writePool(e, p)
	case StageMinimize:
		m, ok := v.(Minimized)
		if !ok || m.Pool == nil {
			return nil, false
		}
		writePool(e, m.Pool)
		writeSubsumeStats(e, m.Stats)
	case StagePlan:
		a, ok := v.(*Attack)
		if !ok || a == nil {
			return nil, false
		}
		writeAttack(e, a)
	default:
		return nil, false
	}
	return e.buf, true
}

// decodeArtifact deserializes one stage artifact. Any malformed input —
// including panics from re-interning structurally invalid expressions —
// returns an error, which the disk tier downgrades to a cache miss.
func decodeArtifact(st Stage, data []byte) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("pipeline: artifact decode: %v", r)
		}
	}()
	d := &dec{buf: data}
	switch st {
	case StageBuild, StageEncode:
		bin, berr := sbf.Unmarshal(d.bytes())
		if berr != nil {
			return nil, berr
		}
		v = bin
	case StageCount:
		v = readCount(d)
	case StageExtract:
		v = readPool(d)
	case StageMinimize:
		m := Minimized{Pool: readPool(d)}
		m.Stats = readSubsumeStats(d)
		v = m
	case StagePlan:
		v = readAttack(d)
	default:
		return nil, errCorrupt
	}
	if d.bad || d.off != len(d.buf) {
		return nil, errCorrupt
	}
	return v, nil
}
