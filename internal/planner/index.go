package planner

import (
	"encoding/binary"
	"slices"
	"sort"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// candidateIndex holds per-register producer candidates, filtered and
// statically ranked once at search start instead of per expand() call.
// The diversity tiebreak (prefer gadgets not yet appearing in accepted
// plans) is applied as a cheap stable re-rank on top of the static order
// and cached until the next plan is accepted. All methods run on the
// search coordinator only, so no locking is needed.
type candidateIndex struct {
	base     map[isa.Reg][]*gadget.Gadget
	reranked map[isa.Reg][]*gadget.Gadget
	// anyUses stays false until the first plan is accepted; until then the
	// static order IS the diversity order and no re-rank is done at all.
	anyUses bool
}

func newCandidateIndex(pool *gadget.Pool) *candidateIndex {
	idx := &candidateIndex{
		base:     make(map[isa.Reg][]*gadget.Gadget, len(pool.ByReg)),
		reranked: make(map[isa.Reg][]*gadget.Gadget),
	}
	for r, gs := range pool.ByReg {
		cands := make([]*gadget.Gadget, 0, len(gs))
		for _, g := range gs {
			// Syscall-terminated gadgets cannot continue a chain; they only
			// anchor plans as the goal step. Negative-delta gadgets sink the
			// chain cursor below the payload, making every later gadget read
			// victim stack.
			if g.Effect.End != symex.EndSyscall && g.Effect.StackDelta >= 0 {
				cands = append(cands, g)
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return staticCandLess(cands[i], cands[j]) })
		idx.base[r] = cands
	}
	return idx
}

// staticCandLess is the uses-independent planning-cost order: fewer
// pre-conditions, fewer clobbered registers (fewer threats), shorter.
func staticCandLess(a, b *gadget.Gadget) bool {
	if len(a.Effect.Conds) != len(b.Effect.Conds) {
		return len(a.Effect.Conds) < len(b.Effect.Conds)
	}
	if len(a.ClobRegs) != len(b.ClobRegs) {
		return len(a.ClobRegs) < len(b.ClobRegs)
	}
	if a.NumInsts() != b.NumInsts() {
		return a.NumInsts() < b.NumInsts()
	}
	return a.Location < b.Location
}

// bumpUses invalidates the cached re-ranks after the accepted-plan set (and
// hence the uses counts) changed.
func (idx *candidateIndex) bumpUses() {
	idx.anyUses = true
	clear(idx.reranked)
}

// candidatesFor returns the ranked producer candidates for reg under the
// current uses counts: least-used first (diversity pressure), static
// planning-cost order within each usage class: the order a stable full
// sort by (uses, staticCandLess) would give, because the base is already
// in static order and the re-rank is stable.
func (idx *candidateIndex) candidatesFor(reg isa.Reg, uses map[int]int) []*gadget.Gadget {
	if !idx.anyUses {
		return idx.base[reg]
	}
	if c, ok := idx.reranked[reg]; ok {
		return c
	}
	base := idx.base[reg]
	c := append(make([]*gadget.Gadget, 0, len(base)), base...)
	sort.SliceStable(c, func(i, j int) bool { return uses[c[i].ID] < uses[c[j].ID] })
	idx.reranked[reg] = c
	return c
}

// keyInterner builds the search's dedup keys from interned IDs instead of
// formatted strings: gadget shapes and value specs are mapped to dense
// uint32s once, and a plan's key is the varint encoding of its sorted
// shape multiset plus its sorted packed open requirements — structurally
// the same identity as the old string key without the per-call formatting
// and string sorting. Only the coordinator interns (key, shapeOf, specOf);
// expansion workers build keys with encode, which then only reads, while
// the coordinator waits for them.
type keyInterner struct {
	shapeByGID []uint32 // gadget ID -> shape ID + 1 (0 = not yet interned)
	shapeIDs   map[string]uint32
	specIDs    map[specKey]uint32
	kb         keyBuf // the coordinator's key scratch
}

// keyBuf is one caller's key-building scratch, reused from key to key.
type keyBuf struct {
	rs  []uint64
	buf []byte
}

func newKeyInterner(pool *gadget.Pool) *keyInterner {
	return &keyInterner{
		shapeByGID: make([]uint32, len(pool.Gadgets)),
		shapeIDs:   make(map[string]uint32),
		specIDs:    make(map[specKey]uint32),
	}
}

func (ki *keyInterner) shapeOf(g *gadget.Gadget) uint32 {
	if id := ki.shapeByGID[g.ID]; id != 0 {
		return id - 1
	}
	s := gadgetShape(g)
	id, ok := ki.shapeIDs[s]
	if !ok {
		id = uint32(len(ki.shapeIDs))
		ki.shapeIDs[s] = id
	}
	ki.shapeByGID[g.ID] = id + 1
	return id
}

func (ki *keyInterner) specOf(s ValueSpec) uint32 {
	k := canonSpecKey(s)
	id, ok := ki.specIDs[k]
	if !ok {
		id = uint32(len(ki.specIDs))
		ki.specIDs[k] = id
	}
	return id
}

// key returns the dedup key identifying a search state: the multiset of
// gadget shapes plus the set of open requirements. Complete plans reduce to
// the shape multiset, i.e. the interned form of Plan.Signature. It interns
// every shape and spec of p.
func (ki *keyInterner) key(p *Plan) string {
	b, _ := ki.encode(&ki.kb, p, true)
	return string(b)
}

// encode builds p's key into kb and returns the bytes, valid until kb's
// next use. With intern set it interns every shape and spec of p first;
// without it, as expansion workers call it, it only reads, and reports
// false when some shape or spec of p is not interned yet: then p's key
// equals no key built so far.
func (ki *keyInterner) encode(kb *keyBuf, p *Plan, intern bool) ([]byte, bool) {
	rs := kb.rs[:0]
	for i := range p.Steps {
		g := p.Steps[i].G
		if g == nil {
			continue
		}
		if ki.shapeByGID[g.ID] == 0 && !intern {
			kb.rs = rs
			return nil, false
		}
		rs = append(rs, uint64(ki.shapeOf(g)))
	}
	nShapes := len(rs)
	slices.Sort(rs[:nShapes])
	for _, r := range p.Open {
		shape := uint64(0) // the Start step
		if g := p.step(r.Step).G; g != nil {
			shape = uint64(ki.shapeOf(g)) + 1 // interned by the loop above
		}
		var spec uint32
		if intern {
			spec = ki.specOf(r.Spec)
		} else {
			var ok bool
			if spec, ok = ki.specIDs[canonSpecKey(r.Spec)]; !ok {
				kb.rs = rs
				return nil, false
			}
		}
		// shape(24b) | reg(8b) | spec(32b): pools have far fewer than 2^24
		// distinct shapes and a search sees far fewer than 2^32 specs.
		rs = append(rs, shape<<40|(uint64(r.Reg)&0xFF)<<32|uint64(spec))
	}
	reqs := rs[nShapes:]
	slices.Sort(reqs)
	buf := kb.buf[:0]
	buf = binary.AppendUvarint(buf, uint64(nShapes))
	for _, v := range rs {
		buf = binary.AppendUvarint(buf, v)
	}
	kb.rs, kb.buf = rs, buf
	return buf, true
}
