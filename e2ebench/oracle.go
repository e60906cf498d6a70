package main

// The benchmark's independent reference: a plain edge-list hypergraph, an
// exhaustive HGED oracle, ego extraction, an isomorphism test and an
// edit-path replayer. None of it calls the hged solver packages, so a reply
// that agrees with it was not judged by the code that produced it.

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Graph is a labeled hypergraph as the benchmark models it: node labels and
// an ordered list of hyperedges, each a sorted, duplicate-free member list.
type Graph struct {
	Labels []int
	Edges  []Edge
}

// Edge is one labeled hyperedge.
type Edge struct {
	Label int
	Nodes []int
}

// Oracle size limits: the oracle enumerates every node mapping of the
// padded pair (N! of them) and solves the hyperedge assignment by a subset
// DP over M target slots (M·2^M per mapping).
const (
	oracleMaxNodes = 7
	oracleMaxEdges = 12
)

// NewEdge returns a hyperedge with its members sorted and deduplicated.
func NewEdge(label int, nodes ...int) Edge {
	ns := append([]int(nil), nodes...)
	sort.Ints(ns)
	out := ns[:0]
	for i, v := range ns {
		if i == 0 || v != ns[i-1] {
			out = append(out, v)
		}
	}
	return Edge{Label: label, Nodes: out}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{Labels: append([]int(nil), g.Labels...), Edges: make([]Edge, len(g.Edges))}
	for i, e := range g.Edges {
		c.Edges[i] = Edge{Label: e.Label, Nodes: append([]int(nil), e.Nodes...)}
	}
	return c
}

// padded returns the padded pair size (N, M) of g and h.
func padded(g, h *Graph) (int, int) {
	return max(len(g.Labels), len(h.Labels)), max(len(g.Edges), len(h.Edges))
}

// OracleFits reports whether the oracle can solve the pair.
func OracleFits(g, h *Graph) bool {
	n, m := padded(g, h)
	return n <= oracleMaxNodes && m <= oracleMaxEdges
}

// OracleHGED returns the exact hypergraph edit distance under the unit cost
// model of Definition 3: a node maps to a node (relabel 1 when labels
// differ) or to nothing (insert/delete 1); a hyperedge maps to a hyperedge
// (relabel 1 plus one extend/reduce per member in the symmetric difference
// of the mapped member sets) or to nothing (delete/insert 1 plus one
// reduce/extend per member). It minimises over every node bijection of the
// padded pair and, per bijection, over every hyperedge bijection.
func OracleHGED(g, h *Graph) (int, error) {
	return OracleWithin(g, h, 1<<29)
}

// OracleWithin is OracleHGED(g, h) when that is at most limit, and limit+1
// otherwise; mappings that cannot come in at or under limit are cut short.
func OracleWithin(g, h *Graph, limit int) (int, error) {
	if !OracleFits(g, h) {
		n, m := padded(g, h)
		return 0, fmt.Errorf("oracle: padded pair %d nodes / %d hyperedges exceeds %d / %d", n, m, oracleMaxNodes, oracleMaxEdges)
	}
	n, m := padded(g, h)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Target member sets as bitmasks over target node slots.
	tgt := make([]uint32, len(h.Edges))
	for f, e := range h.Edges {
		for _, v := range e.Nodes {
			tgt[f] |= 1 << uint(v)
		}
	}
	cost := make([]int, m*m)
	dp := make([]int, 1<<uint(m))
	mapped := make([]uint32, len(g.Edges))
	best := limit + 1
	for {
		nc := 0
		for i, j := range perm {
			ir, jr := i < len(g.Labels), j < len(h.Labels)
			switch {
			case ir && jr:
				if g.Labels[i] != h.Labels[j] {
					nc++
				}
			case ir != jr:
				nc++
			}
		}
		if nc < best {
			for e, ed := range g.Edges {
				mapped[e] = 0
				for _, v := range ed.Nodes {
					mapped[e] |= 1 << uint(perm[v])
				}
			}
			for e := 0; e < m; e++ {
				for f := 0; f < m; f++ {
					er, fr := e < len(g.Edges), f < len(h.Edges)
					c := 0
					switch {
					case er && fr:
						if g.Edges[e].Label != h.Edges[f].Label {
							c = 1
						}
						c += bits.OnesCount32(mapped[e] ^ tgt[f])
					case er:
						c = 1 + len(g.Edges[e].Nodes)
					case fr:
						c = 1 + len(h.Edges[f].Nodes)
					}
					cost[e*m+f] = c
				}
			}
			if d := nc + assignDP(cost, m, dp, best-nc); d < best {
				best = d
			}
		}
		if !nextPerm(perm) {
			break
		}
	}
	return best, nil
}

// assignDP is the minimum-cost perfect assignment of an m×m matrix: dp over
// the set of target slots used by the first popcount(mask) source slots.
// States already at or above limit are not extended.
func assignDP(cost []int, m int, dp []int, limit int) int {
	if m == 0 {
		return 0
	}
	const inf = 1 << 30
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	full := 1<<uint(m) - 1
	for mask := 0; mask < full; mask++ {
		d := dp[mask]
		if d >= limit {
			continue
		}
		row := cost[bits.OnesCount(uint(mask))*m:]
		for f := 0; f < m; f++ {
			if mask&(1<<uint(f)) == 0 {
				if nd := d + row[f]; nd < dp[mask|1<<uint(f)] {
					dp[mask|1<<uint(f)] = nd
				}
			}
		}
	}
	return dp[full]
}

// nextPerm advances p to the next permutation in lexicographic order.
func nextPerm(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}

// Ego returns EGO(v): the sub-hypergraph induced by v and every node sharing
// a hyperedge with it, nodes renumbered in ascending original order, keeping
// the hyperedges fully inside that set in their original order.
func (g *Graph) Ego(v int) *Graph {
	in := map[int]bool{v: true}
	for _, e := range g.Edges {
		if containsSorted(e.Nodes, v) {
			for _, u := range e.Nodes {
				in[u] = true
			}
		}
	}
	return g.Induced(in)
}

// Induced returns the sub-hypergraph induced by the node set in.
func (g *Graph) Induced(in map[int]bool) *Graph {
	nodes := make([]int, 0, len(in))
	for u := range in {
		nodes = append(nodes, u)
	}
	sort.Ints(nodes)
	local := make(map[int]int, len(nodes))
	sub := &Graph{Labels: make([]int, len(nodes))}
	for i, u := range nodes {
		local[u] = i
		sub.Labels[i] = g.Labels[u]
	}
	for _, e := range g.Edges {
		ns := make([]int, 0, len(e.Nodes))
		for _, u := range e.Nodes {
			l, ok := local[u]
			if !ok {
				ns = nil
				break
			}
			ns = append(ns, l)
		}
		if ns != nil {
			sub.Edges = append(sub.Edges, Edge{Label: e.Label, Nodes: ns})
		}
	}
	return sub
}

func containsSorted(ns []int, v int) bool {
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// Isomorphic reports whether a node bijection maps g's labeled hyperedge
// multiset onto h's. Candidates must agree on label and degree; the final
// comparison is between sorted canonical edge lists.
func Isomorphic(g, h *Graph) bool {
	n := len(g.Labels)
	if n != len(h.Labels) || len(g.Edges) != len(h.Edges) {
		return false
	}
	degG, degH := degrees(g), degrees(h)
	want := canonEdges(h, nil)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return canonEdges(g, perm) == want
		}
		for j := 0; j < n; j++ {
			if !used[j] && g.Labels[i] == h.Labels[j] && degG[i] == degH[j] {
				used[j], perm[i] = true, j
				if rec(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	return rec(0)
}

func degrees(g *Graph) []int {
	d := make([]int, len(g.Labels))
	for _, e := range g.Edges {
		for _, v := range e.Nodes {
			d[v]++
		}
	}
	return d
}

// canonEdges renders g's hyperedges under the node map perm (nil is the
// identity) as a sorted list, so equal multisets give equal strings.
func canonEdges(g *Graph, perm []int) string {
	rows := make([]string, len(g.Edges))
	for i, e := range g.Edges {
		ns := make([]int, len(e.Nodes))
		for k, v := range e.Nodes {
			if perm != nil {
				v = perm[v]
			}
			ns[k] = v
		}
		sort.Ints(ns)
		var sb strings.Builder
		sb.WriteString(strconv.Itoa(e.Label))
		for _, v := range ns {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(v))
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// PathOp is one edit operation as the server serialises it.
type PathOp struct {
	Kind  string `json:"kind"`
	Node  *int   `json:"node,omitempty"`
	Edge  *int   `json:"edge,omitempty"`
	Label int    `json:"label,omitempty"`
}

// Replay applies an edit path to g. Node and hyperedge slots below g's sizes
// are g's own; higher slots are created by insertions. Each operation is
// checked against Definition 3 (a deleted node belongs to no hyperedge, a
// deleted hyperedge is empty, an extension adds a present non-member, ...).
func Replay(g *Graph, ops []PathOp) (*Graph, error) {
	nodeAlive := map[int]bool{}
	nodeLabel := map[int]int{}
	for v, l := range g.Labels {
		nodeAlive[v], nodeLabel[v] = true, l
	}
	edgeAlive := map[int]bool{}
	edgeLabel := map[int]int{}
	members := map[int]map[int]bool{}
	for e, ed := range g.Edges {
		edgeAlive[e], edgeLabel[e] = true, ed.Label
		members[e] = map[int]bool{}
		for _, v := range ed.Nodes {
			members[e][v] = true
		}
	}
	for i, op := range ops {
		node, edge := -1, -1
		if op.Node != nil {
			node = *op.Node
		}
		if op.Edge != nil {
			edge = *op.Edge
		}
		bad := func(why string) error { return fmt.Errorf("op %d (%s): %s", i, op.Kind, why) }
		switch op.Kind {
		case "node-insert":
			if node < 0 || nodeAlive[node] {
				return nil, bad("slot in use")
			}
			nodeAlive[node], nodeLabel[node] = true, op.Label
		case "node-delete":
			if !nodeAlive[node] {
				return nil, bad("absent node")
			}
			for e, ms := range members {
				if edgeAlive[e] && ms[node] {
					return nil, bad("node still in a hyperedge")
				}
			}
			nodeAlive[node] = false
		case "node-relabel":
			if !nodeAlive[node] {
				return nil, bad("absent node")
			}
			nodeLabel[node] = op.Label
		case "edge-insert":
			if edge < 0 || edgeAlive[edge] {
				return nil, bad("slot in use")
			}
			edgeAlive[edge], edgeLabel[edge], members[edge] = true, op.Label, map[int]bool{}
		case "edge-delete":
			if !edgeAlive[edge] || len(members[edge]) != 0 {
				return nil, bad("absent or non-empty hyperedge")
			}
			edgeAlive[edge] = false
		case "edge-relabel":
			if !edgeAlive[edge] {
				return nil, bad("absent hyperedge")
			}
			edgeLabel[edge] = op.Label
		case "edge-extend":
			if !edgeAlive[edge] || !nodeAlive[node] || members[edge][node] {
				return nil, bad("absent hyperedge/node or already a member")
			}
			members[edge][node] = true
		case "edge-reduce":
			if !edgeAlive[edge] || !members[edge][node] {
				return nil, bad("absent hyperedge or not a member")
			}
			delete(members[edge], node)
		default:
			return nil, bad("unknown kind")
		}
	}
	var alive []int
	for v, ok := range nodeAlive {
		if ok {
			alive = append(alive, v)
		}
	}
	sort.Ints(alive)
	local := map[int]int{}
	out := &Graph{}
	for i, v := range alive {
		local[v] = i
		out.Labels = append(out.Labels, nodeLabel[v])
	}
	var slots []int
	for e, ok := range edgeAlive {
		if ok {
			slots = append(slots, e)
		}
	}
	sort.Ints(slots)
	for _, e := range slots {
		ns := make([]int, 0, len(members[e]))
		for v := range members[e] {
			ns = append(ns, local[v])
		}
		out.Edges = append(out.Edges, NewEdge(edgeLabel[e], ns...))
	}
	return out, nil
}

// HGText renders g in the hg text format the server's upload decoder reads.
func (g *Graph) HGText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes %d\n", len(g.Labels))
	for v, l := range g.Labels {
		fmt.Fprintf(&sb, "label %d %d\n", v, l)
	}
	for _, e := range g.Edges {
		sb.WriteString("edge ")
		sb.WriteString(strconv.Itoa(e.Label))
		for _, v := range e.Nodes {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
