package expr

import "fmt"

// Importer re-interns expression DAGs built in one Builder into another,
// memoizing by source node so shared subterms are imported exactly once and
// stay shared in the destination. It is the merge primitive for sharded
// analysis: extraction workers build effects in private builders, and the
// merge step imports them into the pool's builder, restoring the
// pointer-equality invariant that subsumption and planning rely on.
//
// Import rebuilds nodes through the destination builder's constructors
// rather than copying them raw, so commutative-operand ordering and all
// algebraic simplifications are re-applied against the destination's node
// identities. A DAG imported into a builder is therefore pointer-equal to
// the node the same construction sequence would have produced natively.
//
// An Importer is not safe for concurrent use; its destination builder must
// not be mutated concurrently either.
type Importer struct {
	dst  *Builder
	memo map[*Node]*Node
}

// NewImporter returns an importer targeting dst. One importer may be reused
// across many Import calls (and across source builders); the memo table is
// keyed by source node pointer, which is unique per source builder.
func NewImporter(dst *Builder) *Importer {
	return &Importer{dst: dst, memo: make(map[*Node]*Node)}
}

// Import re-interns n — a node from any builder — into the destination
// builder and returns the equivalent destination node. Importing nil
// returns nil.
func (im *Importer) Import(n *Node) *Node {
	if n == nil {
		return nil
	}
	if m, ok := im.memo[n]; ok {
		return m
	}
	var args [3]*Node
	for i, a := range n.Args {
		args[i] = im.Import(a)
	}
	b := im.dst
	var m *Node
	switch n.Kind {
	case KindConst:
		m = b.Const(n.Val, n.Width)
	case KindVar:
		m = b.Var(n.Name, n.Width, n.Role, n.Val)
	case KindAdd:
		m = b.Add(args[0], args[1])
	case KindSub:
		m = b.Sub(args[0], args[1])
	case KindMul:
		m = b.Mul(args[0], args[1])
	case KindAnd:
		m = b.And(args[0], args[1])
	case KindOr:
		m = b.Or(args[0], args[1])
	case KindXor:
		m = b.Xor(args[0], args[1])
	case KindShl:
		m = b.Shl(args[0], args[1])
	case KindLshr:
		m = b.Lshr(args[0], args[1])
	case KindAshr:
		m = b.Ashr(args[0], args[1])
	case KindNot:
		m = b.Not(args[0])
	case KindNeg:
		m = b.Neg(args[0])
	case KindZext:
		m = b.Zext(args[0], n.Width)
	case KindSext:
		m = b.Sext(args[0], n.Width)
	case KindTrunc:
		m = b.Trunc(args[0], n.Width)
	case KindIte:
		m = b.Ite(args[0], args[1], args[2])
	case KindEq:
		m = b.Eq(args[0], args[1])
	case KindUlt:
		m = b.Ult(args[0], args[1])
	case KindSlt:
		m = b.Slt(args[0], args[1])
	case KindBAnd:
		m = b.BAnd(args[0], args[1])
	case KindBOr:
		m = b.BOr(args[0], args[1])
	case KindBNot:
		m = b.BNot(args[0])
	default:
		panic(fmt.Sprintf("expr: import of invalid node kind %d", n.Kind))
	}
	im.memo[n] = m
	return m
}

// ImportAll imports a slice of nodes in order.
func (im *Importer) ImportAll(nodes []*Node) []*Node {
	if nodes == nil {
		return nil
	}
	out := make([]*Node, len(nodes))
	for i, n := range nodes {
		out[i] = im.Import(n)
	}
	return out
}

// Import is the one-shot convenience form: it re-interns n into dst with a
// fresh memo table. For importing many related DAGs, construct one Importer
// and reuse it so shared subterms are translated once.
func Import(dst *Builder, n *Node) *Node {
	return NewImporter(dst).Import(n)
}
