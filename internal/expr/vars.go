package expr

import (
	"slices"
	"strings"
)

// Free-variable collection. VarNodes is the one-shot form; VarCollector
// amortizes the traversal state for callers that collect from many DAGs in
// a row (subsumption fingerprints every gadget of a pool).

// VarNodes returns the distinct variable nodes appearing in the nodes,
// sorted by name.
func VarNodes(nodes ...*Node) []*Node {
	var c VarCollector
	return append([]*Node(nil), c.Collect(nodes...)...)
}

// VarCollector gathers distinct variable nodes from expression DAGs. Its
// visited set and output slice are reused across calls, so collecting from
// many queries in a loop does per-call work proportional to the DAG, not to
// the history of prior calls. The zero value is ready to use.
type VarCollector struct {
	visited map[uint32]bool
	out     []*Node
}

// Collect returns the distinct variable nodes reachable from the given
// nodes, sorted by name. The returned slice is owned by the collector and
// valid only until the next Collect call.
func (c *VarCollector) Collect(nodes ...*Node) []*Node {
	if c.visited == nil {
		c.visited = make(map[uint32]bool)
	} else {
		clear(c.visited)
	}
	c.out = c.out[:0]
	for _, n := range nodes {
		if n != nil {
			c.visit(n)
		}
	}
	// slices.SortFunc, unlike sort.Slice, allocates nothing per call.
	slices.SortFunc(c.out, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
	return c.out
}

func (c *VarCollector) visit(n *Node) {
	if c.visited[n.id] {
		return
	}
	c.visited[n.id] = true
	if n.Kind == KindVar {
		c.out = append(c.out, n)
	}
	for _, a := range n.Args {
		c.visit(a)
	}
}
