package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	searchFamilies = 256 // base graphs; each has searchVariants perturbed members
	searchVariants = 4
	faultTau       = 2
	faultCap       = 1 // client-chosen expansion budget of the known-fault queries
)

// searchQuery is one request of the round.
type searchQuery struct {
	q      *Graph
	tau, k int
	cap    int64
	fault  bool
	body   []byte
	replay string // hg text of q
}

// The known-fault queries and the corpus members that expose the fault run
// on fixed graphs, not on seeded ones, so every run counts the same
// failures. With a budget of one expansion the solver gives up and
// returns its sampled upper bound (7 and 10 here, true HGED 5 and 6), and
// range search reports that bound as a match within τ = 2.
var faultPairs = [][2]*Graph{
	{
		{Labels: []int{1, 2, 2, 1}, Edges: []Edge{NewEdge(11, 0), NewEdge(10, 0, 1, 3), NewEdge(10, 0, 3), NewEdge(10, 0)}},
		{Labels: []int{1, 1, 2, 2}, Edges: []Edge{NewEdge(11, 0, 1, 3), NewEdge(10, 1), NewEdge(10, 2, 3), NewEdge(10, 1, 3)}},
	},
	{
		{Labels: []int{1, 2, 1, 1}, Edges: []Edge{NewEdge(10, 1, 2), NewEdge(10, 0), NewEdge(10, 0, 1), NewEdge(10, 0, 1, 3)}},
		{Labels: []int{2, 1, 1, 1}, Edges: []Edge{NewEdge(11, 1, 2, 3), NewEdge(11, 3), NewEdge(10, 0, 2), NewEdge(10, 0, 2)}},
	},
}

// searchLoad sends range and kNN queries with inline query graphs against
// a corpus of seeded small graphs. Tight-τ queries are decided mostly by
// the signature filters, wide-τ and kNN queries by exact verification.
type searchLoad struct {
	names   []string
	members []*Graph
	uploads [][]byte
	queries []searchQuery
	// dist[i][j] is HGED(query i, member j) when that is at most known[i],
	// and -1 when it is larger.
	dist    [][]int
	known   []int
	replies []replySet
}

func newSearch(rng *rand.Rand) (workload, error) {
	w := &searchLoad{}
	for f := 0; f < searchFamilies; f++ {
		base := randomSmall(rng)
		for v := 0; v < searchVariants; v++ {
			w.addMember(fmt.Sprintf("c%03d-%d", f, v), perturb(rng, base, rng.Intn(4)))
		}
	}
	for i, fp := range faultPairs {
		w.addMember(fmt.Sprintf("fault-%d", i), fp[1])
	}
	// The round: 128 range τ=1, 96 τ=2, 96 τ=3 and 64 kNN k=3 queries,
	// each a perturbed member, then the known-fault queries eight times
	// over. Many queries per round keep the round's verification work and
	// its latency quantiles close to their means whatever the seed.
	mix := []struct{ n, tau, k int }{{128, 1, 0}, {96, 2, 0}, {96, 3, 0}, {64, 0, 3}}
	for _, m := range mix {
		for i := 0; i < m.n; i++ {
			q := perturb(rng, w.members[rng.Intn(searchFamilies*searchVariants)], 1+rng.Intn(3))
			w.queries = append(w.queries, searchQuery{q: q, tau: m.tau, k: m.k})
		}
	}
	for i := 0; i < 8; i++ {
		for _, fp := range faultPairs {
			w.queries = append(w.queries, searchQuery{q: fp[0], tau: faultTau, cap: faultCap, fault: true})
		}
	}
	for i := range w.queries {
		sq := &w.queries[i]
		sq.replay = sq.q.HGText()
		req := map[string]any{"query": map[string]any{"format": "hg", "data": sq.replay}}
		if sq.k > 0 {
			req["k"] = sq.k
		} else {
			req["tau"] = sq.tau
		}
		if sq.cap > 0 {
			req["maxExpansions"] = sq.cap
		}
		sq.body = mustMarshal(req)
	}
	w.replies = make([]replySet, len(w.queries))
	if err := w.distanceTable(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *searchLoad) addMember(name string, g *Graph) {
	w.names = append(w.names, name)
	w.members = append(w.members, g)
	w.uploads = append(w.uploads, uploadBody(name, g))
}

// randomSmall draws a graph of 4–5 nodes and 3–5 hyperedges of 1–3
// members; node labels 1–3, hyperedge labels 10–12. Keeping every graph
// this small bounds the cost of one exact verification, so the work of a
// round does not hinge on a few expensive pairs a seed happens to draw.
func randomSmall(rng *rand.Rand) *Graph {
	n := 4 + rng.Intn(2)
	g := &Graph{Labels: make([]int, n)}
	for v := range g.Labels {
		g.Labels[v] = 1 + rng.Intn(3)
	}
	for e := 3 + rng.Intn(3); e > 0; e-- {
		g.Edges = append(g.Edges, randomEdge(rng, n))
	}
	return g
}

func randomEdge(rng *rand.Rand, n int) Edge {
	ns := make([]int, 1+rng.Intn(3))
	for i := range ns {
		ns[i] = rng.Intn(n)
	}
	return NewEdge(10+rng.Intn(3), ns...)
}

// perturb applies k random edits, keeping the graph within 5 nodes and 5
// hyperedges.
func perturb(rng *rand.Rand, base *Graph, k int) *Graph {
	g := base.Clone()
	for i := 0; i < k; i++ {
		switch rng.Intn(5) {
		case 0:
			g.Labels[rng.Intn(len(g.Labels))] = 1 + rng.Intn(3)
		case 1:
			if len(g.Edges) > 0 {
				g.Edges[rng.Intn(len(g.Edges))].Label = 10 + rng.Intn(3)
			}
		case 2:
			if len(g.Edges) < 5 {
				g.Edges = append(g.Edges, randomEdge(rng, len(g.Labels)))
			}
		case 3:
			if len(g.Edges) > 1 {
				j := rng.Intn(len(g.Edges))
				g.Edges = append(g.Edges[:j], g.Edges[j+1:]...)
			}
		case 4:
			if len(g.Labels) < 5 {
				g.Labels = append(g.Labels, 1+rng.Intn(3))
				j := rng.Intn(len(g.Edges))
				e := g.Edges[j]
				g.Edges[j] = NewEdge(e.Label, append(e.Nodes, len(g.Labels)-1)...)
			}
		}
	}
	return g
}

// distanceTable solves every query against every member with the oracle
// alone, with no signature filter and no call into the solver under test:
// for a range query up to its τ, for kNN up to a limit doubled until k
// members lie inside it. Every graph of the mix fits the oracle.
func (w *searchLoad) distanceTable() error {
	w.dist = make([][]int, len(w.queries))
	w.known = make([]int, len(w.queries))
	// Rows are independent; two workers fill them.
	errs := make([]error, len(w.queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = w.tableRow(i)
			}
		}()
	}
	for i := range w.queries {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func (w *searchLoad) tableRow(i int) error {
	sq := w.queries[i]
	row := make([]int, len(w.members))
	for j := range row {
		row[j] = -1
	}
	limit := sq.tau
	if sq.k > 0 {
		limit = 3
	}
	for {
		within := 0
		for j, m := range w.members {
			if row[j] >= 0 {
				within++
				continue
			}
			d, err := OracleWithin(sq.q, m, limit)
			if err != nil {
				return fmt.Errorf("table: query %d vs %s: %w", i, w.names[j], err)
			}
			if d <= limit {
				row[j] = d
				within++
			}
		}
		if sq.k == 0 || within >= sq.k || limit >= 64 {
			break
		}
		limit *= 2
	}
	w.dist[i], w.known[i] = row, limit
	return nil
}

func (w *searchLoad) setup(ls *liveServer) error {
	for _, u := range w.uploads {
		if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(u), nil); err != nil {
			return err
		}
	}
	return ls.srv.InitSearchIndex(context.Background())
}

func (w *searchLoad) round(ls *liveServer, tr *tracer) error {
	if tr != nil && tr.index == nil {
		// The registry lists graphs by name; the replay index follows.
		order := make([]int, len(w.names))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return w.names[order[a]] < w.names[order[b]] })
		names, graphs := make([]string, len(order)), make([]*Graph, len(order))
		for i, j := range order {
			names[i], graphs[i] = w.names[j], w.members[j]
		}
		tr.startCorpus(names, graphs)
	}
	for i := range w.queries {
		sq := &w.queries[i]
		op := tr.begin("POST /v1/search")
		st, resp, err := ls.call(true, "POST", "/v1/search", sq.body)
		tr.end(op)
		if err != nil {
			return err
		}
		w.replies[i].add(st, resp)
		if tr != nil {
			tr.replaySearch(op, sq)
		}
	}
	return nil
}

type searchReply struct {
	Matches []struct {
		Name     string `json:"name"`
		Distance int    `json:"distance"`
	} `json:"matches"`
}

func (w *searchLoad) verify(ls *liveServer) (verdict, error) {
	var v verdict
	for i := range w.queries {
		i := i
		n := judge(fmt.Sprintf("search query %d", i), &w.replies[i], func(st int, body []byte) error {
			if err := expectStatus(st, 200, body); err != nil {
				return err
			}
			return w.check(i, body)
		})
		v.failed += n
		if w.queries[i].fault {
			v.known += n
		}
	}
	return v, nil
}

// check judges one search reply against the distance table.
func (w *searchLoad) check(i int, body []byte) error {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	sq, row := w.queries[i], w.dist[i]
	index := make(map[string]int, len(w.names))
	for j, n := range w.names {
		index[n] = j
	}
	seen := map[string]bool{}
	for _, m := range r.Matches {
		j, ok := index[m.Name]
		if !ok || seen[m.Name] {
			return fmt.Errorf("unknown or repeated match %q", m.Name)
		}
		seen[m.Name] = true
		if sq.k == 0 && m.Distance > sq.tau {
			return fmt.Errorf("match %s at %d lies above τ=%d", m.Name, m.Distance, sq.tau)
		}
		if sq.fault {
			// Soundness only: a match may not lie below the true HGED.
			if row[j] < 0 || m.Distance < row[j] {
				return fmt.Errorf("match %s at %d, true HGED %s", m.Name, m.Distance, w.describe(i, j))
			}
			continue
		}
		if row[j] < 0 || row[j] != m.Distance {
			return fmt.Errorf("match %s at %d, true HGED %s", m.Name, m.Distance, w.describe(i, j))
		}
	}
	if sq.fault {
		return nil // known-fault queries are judged for soundness only
	}
	var want []int
	for _, d := range row {
		if d >= 0 && (sq.k > 0 || d <= sq.tau) {
			want = append(want, d)
		}
	}
	sort.Ints(want)
	if sq.k > 0 && len(want) > sq.k {
		want = want[:sq.k]
	}
	got := make([]int, len(r.Matches))
	for k, m := range r.Matches {
		got[k] = m.Distance
	}
	sort.Ints(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("match distances %v, table %v", got, want)
	}
	return nil
}

func (w *searchLoad) describe(i, j int) string {
	if w.dist[i][j] < 0 {
		return fmt.Sprintf("> %d", w.known[i])
	}
	return fmt.Sprint(w.dist[i][j])
}

func (w *searchLoad) dump(dir string) error {
	var sb strings.Builder
	for j, g := range w.members {
		fmt.Fprintf(&sb, "# %s\n%s", w.names[j], g.HGText())
	}
	if err := os.WriteFile(filepath.Join(dir, "search-corpus.hg"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	reqs := make([][]byte, len(w.queries))
	for i, sq := range w.queries {
		reqs[i] = sq.body
	}
	return writeRequests(filepath.Join(dir, "search-requests.json"), reqs)
}
