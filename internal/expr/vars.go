package expr

import "sort"

// Free-variable collection. Vars and VarNodes are the one-shot forms;
// VarCollector amortizes the traversal state for callers that collect from
// many DAGs in a row (symbolic execution collects the free variables of
// every dereferenced address it checks).

// Vars returns the sorted names of all variables appearing in the nodes.
func Vars(nodes ...*Node) []string {
	var c VarCollector
	vars := c.Collect(nodes...)
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = v.Name
	}
	return out
}

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
	sort.Slice(c.out, func(i, j int) bool { return c.out[i].Name < c.out[j].Name })
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
