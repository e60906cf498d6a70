package main

import (
	"math/rand"
	"testing"
)

// fig1 is the paper's running example (Fig. 1), written out independently
// of the library fixture: u1..u8 are nodes 0..7; □=1, △=2, ○=3; orange=10,
// grey=11.
func fig1() *Graph {
	return &Graph{
		Labels: []int{2, 2, 2, 3, 3, 1, 2, 3},
		Edges: []Edge{
			NewEdge(10, 0, 1, 3),
			NewEdge(10, 3, 5, 6),
			NewEdge(11, 1, 2, 4),
			NewEdge(11, 3, 4, 6, 7),
		},
	}
}

func mustHGED(t *testing.T, g, h *Graph) int {
	t.Helper()
	d, err := OracleHGED(g, h)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOraclePaperEgoPair(t *testing.T) {
	g := fig1()
	u4, u5 := g.Ego(3), g.Ego(4)
	if len(u4.Labels) != 7 || len(u5.Labels) != 6 {
		t.Fatalf("ego sizes %d, %d; want 7, 6 (Example 1)", len(u4.Labels), len(u5.Labels))
	}
	if d := mustHGED(t, u4, u5); d != 6 {
		t.Fatalf("HGED(EGO(u4), EGO(u5)) = %d, want 6 (Example 2)", d)
	}
	// Example 2's path: relabel E1 grey; reduce E2 by u4, u6, u7; delete
	// u6; delete E2. In EGO(u4) (nodes u1,u2,u4,u5,u6,u7,u8 → 0..6) E1 is
	// slot 0, E2 slot 1, u4 → 2, u6 → 4, u7 → 5.
	ops := []PathOp{
		{Kind: "edge-relabel", Edge: ip(0), Label: 11},
		{Kind: "edge-reduce", Edge: ip(1), Node: ip(2)},
		{Kind: "edge-reduce", Edge: ip(1), Node: ip(4)},
		{Kind: "edge-reduce", Edge: ip(1), Node: ip(5)},
		{Kind: "node-delete", Node: ip(4)},
		{Kind: "edge-delete", Edge: ip(1)},
	}
	out, err := Replay(u4, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(out, u5) {
		t.Fatalf("replayed Example 2 path gives %+v, not isomorphic to EGO(u5)", out)
	}
}

func ip(v int) *int { return &v }

func randomGraph(rng *rand.Rand, maxN, maxM int) *Graph {
	n := 1 + rng.Intn(maxN)
	g := &Graph{Labels: make([]int, n)}
	for i := range g.Labels {
		g.Labels[i] = 1 + rng.Intn(2)
	}
	for e := rng.Intn(maxM + 1); e > 0; e-- {
		var ns []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				ns = append(ns, v)
			}
		}
		g.Edges = append(g.Edges, NewEdge(10+rng.Intn(2), ns...))
	}
	return g
}

func TestOracleIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		g, h := randomGraph(rng, 5, 5), randomGraph(rng, 5, 5)
		if d := mustHGED(t, g, g); d != 0 {
			t.Fatalf("d(g,g) = %d for %+v", d, g)
		}
		if a, b := mustHGED(t, g, h), mustHGED(t, h, g); a != b {
			t.Fatalf("asymmetric: %d vs %d for %+v / %+v", a, b, g, h)
		}
		// A relabelled copy is isomorphic and at distance 0.
		p := rng.Perm(len(g.Labels))
		c := &Graph{Labels: make([]int, len(g.Labels))}
		for v, l := range g.Labels {
			c.Labels[p[v]] = l
		}
		for _, e := range g.Edges {
			ns := make([]int, len(e.Nodes))
			for k, v := range e.Nodes {
				ns[k] = p[v]
			}
			c.Edges = append(c.Edges, NewEdge(e.Label, ns...))
		}
		if !Isomorphic(g, c) || mustHGED(t, g, c) != 0 {
			t.Fatalf("permuted copy not isomorphic / not at distance 0")
		}
	}
}

func TestOracleHandComputed(t *testing.T) {
	one := func(l int) *Graph { return &Graph{Labels: []int{l}} }
	pair := func(el int) *Graph { return &Graph{Labels: []int{1, 1}, Edges: []Edge{NewEdge(el, 0, 1)}} }
	cases := []struct {
		name string
		g, h *Graph
		want int
	}{
		{"empty vs one node", &Graph{}, one(1), 1},
		{"node relabel", one(1), one(2), 1},
		{"edge relabel", pair(10), pair(11), 1},
		// Delete a 2-member hyperedge: reduce twice, then delete.
		{"edge delete", pair(10), &Graph{Labels: []int{1, 1}}, 3},
		// Extend {0,1} by node 2 (a relabel of the node would not help).
		{"edge extend", &Graph{Labels: []int{1, 1, 1}, Edges: []Edge{NewEdge(10, 0, 1)}},
			&Graph{Labels: []int{1, 1, 1}, Edges: []Edge{NewEdge(10, 0, 1, 2)}}, 1},
		// Two hyperedges swap labels: mapping them crosswise costs 0.
		{"edge swap", &Graph{Labels: []int{1, 2}, Edges: []Edge{NewEdge(10, 0), NewEdge(11, 1)}},
			&Graph{Labels: []int{2, 1}, Edges: []Edge{NewEdge(10, 1), NewEdge(11, 0)}}, 0},
		// Insert a labelled node and an empty hyperedge over it: node 1,
		// hyperedge 1, extend 1.
		{"grow", one(1), &Graph{Labels: []int{1, 2}, Edges: []Edge{NewEdge(10, 1)}}, 3},
	}
	for _, c := range cases {
		if d := mustHGED(t, c.g, c.h); d != c.want {
			t.Errorf("%s: HGED = %d, want %d", c.name, d, c.want)
		}
	}
}

func TestOracleRejectsOversizedPair(t *testing.T) {
	g := &Graph{Labels: make([]int, oracleMaxNodes+1)}
	if _, err := OracleHGED(g, &Graph{}); err == nil {
		t.Fatal("oversized pair accepted")
	}
}

func TestReplayRejectsIllegalOps(t *testing.T) {
	g := &Graph{Labels: []int{1, 1}, Edges: []Edge{NewEdge(10, 0, 1)}}
	for _, ops := range [][]PathOp{
		{{Kind: "node-delete", Node: ip(0)}},              // still a member
		{{Kind: "edge-delete", Edge: ip(0)}},              // not empty
		{{Kind: "edge-extend", Edge: ip(0), Node: ip(1)}}, // already a member
		{{Kind: "node-insert", Node: ip(1), Label: 2}},    // slot in use
		{{Kind: "edge-reduce", Edge: ip(3), Node: ip(0)}}, // absent hyperedge
		{{Kind: "teleport", Node: ip(0)}},                 // unknown kind
	} {
		if _, err := Replay(g, ops); err == nil {
			t.Errorf("Replay accepted %+v", ops)
		}
	}
}

func TestIsomorphicDistinguishes(t *testing.T) {
	a := &Graph{Labels: []int{1, 1, 1}, Edges: []Edge{NewEdge(10, 0, 1), NewEdge(10, 1, 2)}}
	b := &Graph{Labels: []int{1, 1, 1}, Edges: []Edge{NewEdge(10, 0, 1), NewEdge(10, 0, 1)}}
	if Isomorphic(a, b) {
		t.Fatal("path and doubled edge reported isomorphic")
	}
}
