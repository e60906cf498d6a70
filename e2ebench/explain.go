package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hged/internal/dataset"
)

// Pair-selection rule: a node pair is eligible when its padded ego pair
// (N = larger node count, M = larger hyperedge count) has N+M ≤ 11, with
// N and M inside the oracle's limits. Larger pairs are where exact BFS can
// exhaust the server's expansion cap and answer with a bound instead.
const maxPaddedEntities = 11

const (
	explainSigmaBatch = 16 // pairs per /sigma batch
	explainSigmaFresh = 2  // of which walk the pool (the rest repeat)
	explainSigmaEvery = 2  // one /sigma batch after every second /distance
	explainBudget     = 5  // σ budget
)

// explainReplicas are the paper replicas whose egos are small enough for
// the pair rule to leave pairs (PS, MO and AMZ leave none).
var explainReplicas = []string{"HS", "WM", "TVG"}

type nodePair struct{ U, V int }

// explainLoad asks /distance (with explain:true) and /sigma on the HS, WM
// and TVG replicas. A round asks, graph by graph, the distance of every
// eligible pair once, in a seeded order, so the solver work per round does
// not depend on which pairs a seed happens to draw. Each graph is
// re-uploaded at the start of its part of the round, so its ego memo and σ
// memo start cold; σ pairs repeat under a skewed draw, so part of every
// batch is served from the memo and part is solved fresh, and each round
// solves every eligible pair once.
type explainLoad struct {
	graphs []*explainGraph
}

// explainGraph is one replica's share of the explain round.
type explainGraph struct {
	name   string
	g      *Graph
	upload []byte
	egos   []*Graph
	// The operation list of one round.
	distance []nodePair
	sigma    [][]nodePair
	reqs     [][]byte // distance bodies, then sigma bodies
	oracle   map[nodePair]int

	replies []replySet // per request slot: the distinct replies seen
	deletes replySet
	uploads replySet
}

// replySet records the distinct reply bodies one request slot produced and
// how many times each came back. Rounds repeat the same requests, so each
// distinct body is judged once.
type replySet struct {
	bodies [][]byte
	status []int
	counts []int
}

func (r *replySet) add(status int, body []byte) {
	for i, b := range r.bodies {
		if r.status[i] == status && bytes.Equal(b, body) {
			r.counts[i]++
			return
		}
	}
	r.bodies = append(r.bodies, append([]byte(nil), body...))
	r.status = append(r.status, status)
	r.counts = append(r.counts, 1)
}

// replica is a paper dataset replica at its default scale, in the
// benchmark's model.
func replica(name string) (*Graph, error) {
	sp, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	h, err := sp.Replica(0)
	if err != nil {
		return nil, err
	}
	return graphOf(h), nil
}

// eligiblePairs lists every node pair of g that passes the size rule.
func eligiblePairs(egos []*Graph) []nodePair {
	var out []nodePair
	for u := range egos {
		for v := u + 1; v < len(egos); v++ {
			n, m := padded(egos[u], egos[v])
			if n+m <= maxPaddedEntities && n <= oracleMaxNodes && m <= oracleMaxEdges {
				out = append(out, nodePair{u, v})
			}
		}
	}
	return out
}

func newExplain(rng *rand.Rand) (workload, error) {
	w := &explainLoad{}
	for _, name := range explainReplicas {
		g, err := replica(name)
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, newExplainGraph(rng, strings.ToLower(name), g))
	}
	return w, nil
}

func newExplainGraph(rng *rand.Rand, name string, g *Graph) *explainGraph {
	w := &explainGraph{name: name, g: g, upload: uploadBody(name, g), oracle: map[nodePair]int{}}
	for v := range g.Labels {
		w.egos = append(w.egos, g.Ego(v))
	}
	pool := eligiblePairs(w.egos)
	fmt.Fprintf(os.Stderr, "explain: %s has %d eligible pairs\n", name, len(pool))
	for _, i := range rng.Perm(len(pool)) {
		w.distance = append(w.distance, pool[i])
	}
	// σ batches: explainSigmaFresh pairs walking a seeded ordering of the
	// whole pool, so every eligible pair is solved once per round whatever
	// the seed, and the rest a Zipf draw over another seeded ordering,
	// mostly answered from the memo.
	walk, order := rng.Perm(len(pool)), rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, 1.2, 4, uint64(len(pool)-1))
	for b := 0; b < len(w.distance)/explainSigmaEvery; b++ {
		batch := make([]nodePair, 0, explainSigmaBatch)
		for i := 0; i < explainSigmaFresh; i++ {
			batch = append(batch, pool[walk[(b*explainSigmaFresh+i)%len(walk)]])
		}
		for len(batch) < explainSigmaBatch {
			batch = append(batch, pool[order[zipf.Uint64()]])
		}
		w.sigma = append(w.sigma, batch)
	}
	for _, p := range w.distance {
		w.reqs = append(w.reqs, mustMarshal(map[string]any{"u": p.U, "v": p.V, "explain": true}))
	}
	for _, batch := range w.sigma {
		pairs := make([][2]int, len(batch))
		for i, p := range batch {
			pairs[i] = [2]int{p.U, p.V}
		}
		w.reqs = append(w.reqs, mustMarshal(map[string]any{"pairs": pairs, "budget": explainBudget}))
	}
	w.replies = make([]replySet, len(w.reqs))
	return w
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of ints, strings and slices are marshalled
	}
	return b
}

func (w *explainLoad) setup(ls *liveServer) error {
	for _, eg := range w.graphs {
		if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(eg.upload), nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *explainLoad) round(ls *liveServer, tr *tracer) error {
	for _, eg := range w.graphs {
		if err := eg.round(ls, tr); err != nil {
			return err
		}
	}
	return nil
}

func (w *explainGraph) round(ls *liveServer, tr *tracer) error {
	// A fresh copy of the graph: cold ego and σ memos.
	if err := w.do(ls, tr, slotDelete, "DELETE", "/v1/graphs/"+w.name, nil); err != nil {
		return err
	}
	if err := w.do(ls, tr, slotUpload, "POST", "/v1/graphs", w.upload); err != nil {
		return err
	}
	nd := len(w.distance)
	for i := range w.distance {
		if err := w.do(ls, tr, i, "POST", "/v1/graphs/"+w.name+"/distance", w.reqs[i]); err != nil {
			return err
		}
		if (i+1)%explainSigmaEvery == 0 {
			j := nd + i/explainSigmaEvery
			if err := w.do(ls, tr, j, "POST", "/v1/graphs/"+w.name+"/sigma", w.reqs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reply slots of the re-upload that opens every round.
const (
	slotDelete = -2
	slotUpload = -1
)

// do sends one timed request and records its reply for verification.
func (w *explainGraph) do(ls *liveServer, tr *tracer, slot int, method, path string, body []byte) error {
	op := tr.begin(opName(method, path))
	st, resp, err := ls.call(true, method, path, body)
	tr.end(op)
	if err != nil {
		return err
	}
	switch slot {
	case slotDelete:
		w.deletes.add(st, resp)
		return nil
	case slotUpload:
		w.uploads.add(st, resp)
		if tr != nil {
			tr.replayUpload(op, body)
		}
		return nil
	}
	w.replies[slot].add(st, resp)
	if tr != nil {
		if slot < len(w.distance) {
			p := w.distance[slot]
			tr.replayDistance(op, w.name, p.U, p.V)
		} else {
			tr.replaySigma(op, w.name, w.sigma[slot-len(w.distance)], explainBudget)
		}
	}
	return nil
}

func (w *explainGraph) hged(p nodePair) (int, error) {
	if d, ok := w.oracle[p]; ok {
		return d, nil
	}
	d, err := OracleHGED(w.egos[p.U], w.egos[p.V])
	if err != nil {
		return 0, err
	}
	w.oracle[p] = d
	return d, nil
}

func (w *explainLoad) verify(ls *liveServer) (verdict, error) {
	var v verdict
	for _, eg := range w.graphs {
		v.failed += eg.verify()
	}
	return v, nil
}

// verify judges the graph's recorded replies and returns how many
// operations failed.
func (w *explainGraph) verify() int {
	failed := judge("explain delete "+w.name, &w.deletes, func(st int, body []byte) error {
		return expectStatus(st, 200, body)
	})
	failed += judge("explain upload "+w.name, &w.uploads, func(st int, body []byte) error {
		return checkUpload(st, body, w.g)
	})
	bounds := 0
	for slot := range w.replies {
		rs := &w.replies[slot]
		failed += judge(fmt.Sprintf("explain %s request %d", w.name, slot), rs, func(st int, body []byte) error {
			if err := expectStatus(st, 200, body); err != nil {
				return err
			}
			if slot >= len(w.distance) {
				return w.checkSigma(w.sigma[slot-len(w.distance)], body)
			}
			if bytes.Contains(body, []byte(`"exact":false`)) {
				bounds++
			}
			return w.checkDistance(w.distance[slot], body)
		})
	}
	fmt.Fprintf(os.Stderr, "explain: %s: %d distinct distance replies flagged exact:false\n", w.name, bounds)
	return failed
}

type distanceReply struct {
	Distance int      `json:"distance"`
	Exact    bool     `json:"exact"`
	Ops      []PathOp `json:"ops"`
}

// checkDistance: the path replayed on EGO(u) must give a graph isomorphic
// to EGO(v) in exactly `distance` operations; an exact distance must equal
// the oracle, a flagged bound must not lie below it.
func (w *explainGraph) checkDistance(p nodePair, body []byte) error {
	var r distanceReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	want, err := w.hged(p)
	if err != nil {
		return err
	}
	switch {
	case r.Exact && r.Distance != want:
		return fmt.Errorf("σ(%d,%d) = %d, oracle %d", p.U, p.V, r.Distance, want)
	case !r.Exact && r.Distance < want:
		return fmt.Errorf("σ(%d,%d) bound %d below oracle %d", p.U, p.V, r.Distance, want)
	case len(r.Ops) != r.Distance:
		return fmt.Errorf("σ(%d,%d) = %d but the path has %d operations", p.U, p.V, r.Distance, len(r.Ops))
	}
	out, err := Replay(w.egos[p.U], r.Ops)
	if err != nil {
		return fmt.Errorf("σ(%d,%d) path: %v", p.U, p.V, err)
	}
	if !Isomorphic(out, w.egos[p.V]) {
		return fmt.Errorf("σ(%d,%d) path does not reach EGO(%d)", p.U, p.V, p.V)
	}
	return nil
}

// checkSigma compares every σ answer of a batch against the oracle.
func (w *explainGraph) checkSigma(pairs []nodePair, body []byte) error {
	var r struct {
		Results []sigmaAnswer `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	return checkSigmaAnswers(pairs, explainBudget, r.Results, w.hged)
}

func (w *explainLoad) dump(dir string) error {
	for _, eg := range w.graphs {
		if err := os.WriteFile(filepath.Join(dir, eg.name+".hg"), []byte(eg.g.HGText()), 0o644); err != nil {
			return err
		}
		if err := writeRequests(filepath.Join(dir, "explain-"+eg.name+"-requests.json"), eg.reqs); err != nil {
			return err
		}
	}
	return nil
}

// writeRequests writes one round's request bodies as a JSON array.
func writeRequests(path string, reqs [][]byte) error {
	raw := make([]json.RawMessage, len(reqs))
	for i, r := range reqs {
		raw[i] = r
	}
	b, err := json.MarshalIndent(raw, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// judge runs check on every distinct reply of a slot and returns how many
// operations the rejected replies stand for.
func judge(what string, rs *replySet, check func(status int, body []byte) error) int {
	failed := 0
	for i, body := range rs.bodies {
		if err := check(rs.status[i], body); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed ×%d: %v\n", what, rs.counts[i], err)
			failed += rs.counts[i]
		}
	}
	return failed
}

func expectStatus(got, want int, body []byte) error {
	if got != want {
		return fmt.Errorf("status %d, want %d: %s", got, want, body)
	}
	return nil
}

type statsReply struct {
	Stats struct{ Nodes, Edges int } `json:"stats"`
}

// checkUpload: the upload is created and reports the model's sizes.
func checkUpload(status int, body []byte, g *Graph) error {
	if err := expectStatus(status, 201, body); err != nil {
		return err
	}
	return checkCounts(body, len(g.Labels), len(g.Edges))
}

func checkCounts(body []byte, nodes, edges int) error {
	var r statsReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Stats.Nodes != nodes || r.Stats.Edges != edges {
		return fmt.Errorf("server has %d nodes / %d hyperedges, model %d / %d", r.Stats.Nodes, r.Stats.Edges, nodes, edges)
	}
	return nil
}
