package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	churnMembers     = 256 // corpus members beside the host graph
	churnSteps       = 4   // growth steps (one node + one hyperedge each) per host batch
	churnSeedNodes   = 64
	churnSeedEdges   = 192 // every step adds one hyperedge and removes one, so the live count stays here
	churnCopyProb    = 0.5 // per-member template copy probability
	churnSigmaPairs  = 4
	churnBudget      = 5
	churnWarmSteps   = 200 // growth applied before upload
	churnPeriod      = 200 // sub-rounds per round; each round starts from the uploaded host
	churnHost        = "host"
	churnNodeLabels  = 4
	churnEdgeLabels  = 4
	churnMemberEdges = 4 // members above this size lose a hyperedge, others gain one
)

// hostModel is the benchmark's own model of the growing host graph: every
// hyperedge ever added, indexed by handle (insertion order), and the
// ascending handles of the live ones. A live hyperedge's server-side id is
// its position in that list, which removals shift down.
type hostModel struct {
	labels []int
	edges  []Edge
	alive  []bool
	live   []int   // handles of the live hyperedges, ascending
	inc    [][]int // node → handles of its hyperedges, live and dead
	recent []int   // recently added nodes, newest last
}

func (h *hostModel) addNode(label int) int {
	h.labels = append(h.labels, label)
	h.inc = append(h.inc, nil)
	h.recent = append(h.recent, len(h.labels)-1)
	if len(h.recent) > 4*churnSteps {
		h.recent = h.recent[1:]
	}
	return len(h.labels) - 1
}

func (h *hostModel) addEdge(e Edge) {
	id := len(h.edges)
	h.live = append(h.live, id)
	h.edges = append(h.edges, e)
	h.alive = append(h.alive, true)
	for _, v := range e.Nodes {
		h.inc[v] = append(h.inc[v], id)
	}
}

// rank is the server-side id of live hyperedge handle id.
func (h *hostModel) rank(id int) int { return sort.SearchInts(h.live, id) }

func (h *hostModel) remove(id int) {
	i := h.rank(id)
	h.live = append(h.live[:i], h.live[i+1:]...)
	h.alive[id] = false
}

// clone returns a deep copy of the model.
func (h *hostModel) clone() *hostModel {
	c := &hostModel{
		labels: append([]int(nil), h.labels...),
		edges:  append([]Edge(nil), h.edges...), // member lists are never changed
		alive:  append([]bool(nil), h.alive...),
		live:   append([]int(nil), h.live...),
		inc:    make([][]int, len(h.inc)),
		recent: append([]int(nil), h.recent...),
	}
	for v, ids := range h.inc {
		c.inc[v] = append([]int(nil), ids...)
	}
	return c
}

// graph returns the model's current content: every node, and the live
// hyperedges in server order. It shares the model's storage and must not
// be changed.
func (h *hostModel) graph() *Graph {
	g := &Graph{Labels: h.labels[:len(h.labels):len(h.labels)], Edges: make([]Edge, len(h.live))}
	for i, id := range h.live {
		g.Edges[i] = h.edges[id]
	}
	return g
}

// ego is graph().Ego(v), found through the incidence lists: only the
// hyperedges touching v's neighbourhood can lie inside it, so Induced runs
// on those alone rather than on the whole host.
func (h *hostModel) ego(v int) *Graph {
	nei := map[int]bool{v: true}
	for _, id := range h.inc[v] {
		if h.alive[id] {
			for _, u := range h.edges[id].Nodes {
				nei[u] = true
			}
		}
	}
	var ids []int
	seen := map[int]bool{}
	for u := range nei {
		for _, id := range h.inc[u] {
			if h.alive[id] && !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids) // server order
	near := &Graph{Labels: h.labels, Edges: make([]Edge, len(ids))}
	for i, id := range ids {
		near.Edges[i] = h.edges[id]
	}
	return near.Induced(nei)
}

// churnGen generates the churn stream. It is a deterministic function of
// the seed, so verification replays it to rebuild the model at every round.
type churnGen struct {
	rng     *rand.Rand
	host    *hostModel
	initial *hostModel // the host as uploaded
	members []*Graph
	names   []string
}

// churnRound is one round's requests and the model state they expect.
type churnRound struct {
	hostBody, memberBody, searchBody, sigmaBody []byte
	member                                      int
	pairs                                       []nodePair
}

func newChurnGen(seed int64) *churnGen {
	c := &churnGen{rng: rand.New(rand.NewSource(seed)), host: &hostModel{}}
	for i := 0; i < churnSeedNodes; i++ {
		c.host.addNode(1 + c.rng.Intn(churnNodeLabels))
	}
	for i := 0; i < churnSeedEdges; i++ {
		ns := make([]int, 2+c.rng.Intn(3))
		for k := range ns {
			ns[k] = c.rng.Intn(churnSeedNodes)
		}
		c.host.addEdge(NewEdge(10+c.rng.Intn(churnEdgeLabels), ns...))
	}
	for i := 0; i < churnWarmSteps; i++ {
		c.growStep(nil, nil, nil)
	}
	c.initial = c.host.clone()
	for i := 0; i < churnMembers; i++ {
		c.members = append(c.members, randomSmall(c.rng))
		c.names = append(c.names, fmt.Sprintf("m%03d", i))
	}
	return c
}

// resetHost returns the host model to its uploaded state. The stream
// itself goes on: the next sub-rounds draw new steps.
func (c *churnGen) resetHost() { c.host = c.initial.clone() }

// growStep is one step of the hyperedge-copying growth model: a new node
// copies each member of a uniform random template hyperedge with
// probability churnCopyProb (at least one), and a uniform random live
// hyperedge is removed, so the live count stays where it started. Added
// labels and hyperedges are appended to the batch slices when given.
func (c *churnGen) growStep(addNodes *[]map[string]int, addEdges *[]map[string]any, removed *[]int) {
	h := c.host
	label := 1 + c.rng.Intn(churnNodeLabels)
	v := h.addNode(label)
	tmpl := h.edges[h.live[c.rng.Intn(len(h.live))]].Nodes
	members := []int{v}
	for _, u := range tmpl {
		if c.rng.Float64() < churnCopyProb {
			members = append(members, u)
		}
	}
	if len(members) == 1 && len(tmpl) > 0 {
		members = append(members, tmpl[c.rng.Intn(len(tmpl))])
	}
	e := NewEdge(10+c.rng.Intn(churnEdgeLabels), members...)
	h.addEdge(e)
	if addNodes != nil {
		*addNodes = append(*addNodes, map[string]int{"label": label})
		*addEdges = append(*addEdges, map[string]any{"label": e.Label, "nodes": e.Nodes})
	}
	if len(h.live) > 1 {
		victim := h.live[c.rng.Intn(len(h.live))]
		if removed != nil {
			*removed = append(*removed, victim)
		} else {
			h.remove(victim)
		}
	}
}

// next generates round r and advances the model past it.
func (c *churnGen) next() churnRound {
	var (
		rd       churnRound
		addNodes []map[string]int
		addEdges []map[string]any
		victims  []int
	)
	for s := 0; s < churnSteps; s++ {
		c.growStep(&addNodes, &addEdges, &victims)
	}
	// Removals are sent in post-addition numbering, so ids are ranked
	// before any of the batch's removals is applied.
	removeIDs := []int{}
	for _, id := range dedupInts(victims) {
		removeIDs = append(removeIDs, c.host.rank(id))
	}
	for _, id := range dedupInts(victims) {
		c.host.remove(id)
	}
	rd.hostBody = mustMarshal(map[string]any{"addNodes": addNodes, "addEdges": addEdges, "removeEdges": removeIDs})

	rd.member = c.rng.Intn(len(c.members))
	m := c.members[rd.member]
	if len(m.Edges) > churnMemberEdges {
		j := c.rng.Intn(len(m.Edges))
		m.Edges = append(m.Edges[:j], m.Edges[j+1:]...)
		rd.memberBody = mustMarshal(map[string]any{"removeEdges": []int{j}})
	} else {
		e := randomEdge(c.rng, len(m.Labels))
		m.Edges = append(m.Edges, e)
		rd.memberBody = mustMarshal(map[string]any{"addEdges": []map[string]any{{"label": e.Label, "nodes": e.Nodes}}})
	}
	rd.searchBody = mustMarshal(map[string]any{"query": map[string]any{"format": "hg", "data": m.HGText()}})

	// σ pairs among recently added nodes whose ego pairs pass the size rule.
	var cands []nodePair
	sizes := map[int][2]int{}
	for _, v := range c.host.recent {
		e := c.host.ego(v)
		sizes[v] = [2]int{len(e.Labels), len(e.Edges)}
	}
	for i, u := range c.host.recent {
		for _, v := range c.host.recent[i+1:] {
			n, mm := max(sizes[u][0], sizes[v][0]), max(sizes[u][1], sizes[v][1])
			if n+mm <= maxPaddedEntities && n <= oracleMaxNodes && mm <= oracleMaxEdges {
				cands = append(cands, nodePair{u, v})
			}
		}
	}
	for len(rd.pairs) < churnSigmaPairs && len(cands) > 0 {
		k := c.rng.Intn(len(cands))
		rd.pairs = append(rd.pairs, cands[k])
		cands = append(cands[:k], cands[k+1:]...)
	}
	for len(rd.pairs) < churnSigmaPairs {
		// No eligible pair left: σ of a node with itself is 0.
		v := c.host.recent[len(c.host.recent)-1]
		rd.pairs = append(rd.pairs, nodePair{v, v})
	}
	pairs := make([][2]int, len(rd.pairs))
	for i, p := range rd.pairs {
		pairs[i] = [2]int{p.U, p.V}
	}
	rd.sigmaBody = mustMarshal(map[string]any{"pairs": pairs, "budget": churnBudget})
	return rd
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// churnReply is the compact record of one sub-round's replies.
type churnReply struct {
	Status   [4]int
	Host     [2]int // nodes, edges
	Member   [2]int
	Matches  []string
	Distance []int // search match distances
	Sigma    []sigmaAnswer
}

type sigmaAnswer struct {
	U, V     int
	Distance int  `json:"distance"`
	Within   bool `json:"within"`
}

// churnLoad interleaves mutation batches on a growing host graph and on
// corpus members with read-your-writes searches and σ batches.
type churnLoad struct {
	seed     int64
	gen      *churnGen
	log      *replyLog // per sub-round
	deletes  replySet  // host deletes opening the rounds
	uploads  replySet  // host re-uploads opening the rounds
	hostUp   []byte
	upBodies [][]byte
}

func newChurn(rng *rand.Rand) (workload, error) {
	w := &churnLoad{seed: rng.Int63()}
	w.gen = newChurnGen(w.seed)
	w.hostUp = uploadBody(churnHost, w.gen.host.graph())
	for i, m := range w.gen.members {
		w.upBodies = append(w.upBodies, uploadBody(w.gen.names[i], m))
	}
	return w, nil
}

func (w *churnLoad) setup(ls *liveServer) error {
	if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(w.hostUp), nil); err != nil {
		return err
	}
	for _, u := range w.upBodies {
		if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(u), nil); err != nil {
			return err
		}
	}
	return ls.srv.InitSearchIndex(context.Background())
}

// round deletes the host and uploads it again as it was at set-up, then
// runs churnPeriod sub-rounds of growth on it. Restarting the host keeps its
// size, and with it the work per operation, the same in every round,
// whatever the run's length or the machine's speed.
func (w *churnLoad) round(ls *liveServer, tr *tracer) error {
	if w.log == nil {
		var err error
		if w.log, err = newReplyLog(); err != nil {
			return err
		}
	}
	if tr != nil && tr.index == nil {
		// Registry (name) order: "host" sorts before the "m…" members.
		names := append([]string{churnHost}, w.gen.names...)
		graphs := append([]*Graph{w.gen.host.graph()}, w.gen.members...)
		tr.startCorpus(names, graphs)
		tr.graphs[churnHost] = tr.versions[churnHost].Current().Graph()
	}
	w.gen.resetHost()
	op := tr.begin("DELETE /v1/graphs/{name}")
	st, resp, err := ls.call(true, "DELETE", "/v1/graphs/"+churnHost, nil)
	tr.end(op)
	if err != nil {
		return err
	}
	w.deletes.add(st, resp)
	op = tr.begin("POST /v1/graphs")
	st, resp, err = ls.call(true, "POST", "/v1/graphs", w.hostUp)
	tr.end(op)
	if err != nil {
		return err
	}
	w.uploads.add(st, resp)
	if tr != nil {
		tr.replayUpload(op, w.hostUp)
	}
	for i := 0; i < churnPeriod; i++ {
		if err := w.subRound(ls, tr); err != nil {
			return err
		}
	}
	return nil
}

func (w *churnLoad) subRound(ls *liveServer, tr *tracer) error {
	rd := w.gen.next()
	var rep churnReply
	member := w.gen.names[rd.member]
	steps := []struct {
		graph, path string
		body        []byte
	}{
		{churnHost, "/v1/graphs/" + churnHost + "/edges", rd.hostBody},
		{member, "/v1/graphs/" + member + "/edges", rd.memberBody},
		{"", "/v1/search", rd.searchBody},
		{churnHost, "/v1/graphs/" + churnHost + "/sigma", rd.sigmaBody},
	}
	for i, s := range steps {
		op := tr.begin(opName("POST", s.path))
		st, resp, err := ls.call(true, "POST", s.path, s.body)
		tr.end(op)
		if err != nil {
			return err
		}
		rep.Status[i] = st
		if st == 200 {
			if err := rep.parse(i, resp); err != nil {
				rep.Status[i] = -st
			}
		}
		if tr != nil {
			tr.replayChurn(op, ls, i, s.graph, s.body)
		}
	}
	return w.log.add(rep)
}

func (r *churnReply) parse(step int, body []byte) error {
	switch step {
	case 0, 1:
		var s statsReply
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if step == 0 {
			r.Host = [2]int{s.Stats.Nodes, s.Stats.Edges}
		} else {
			r.Member = [2]int{s.Stats.Nodes, s.Stats.Edges}
		}
	case 2:
		var s searchReply
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		for _, m := range s.Matches {
			r.Matches = append(r.Matches, m.Name)
			r.Distance = append(r.Distance, m.Distance)
		}
	case 3:
		var s struct {
			Results []sigmaAnswer `json:"results"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		r.Sigma = s.Results
	}
	return nil
}

// replyLog keeps the sub-rounds' replies in a file under the build
// directory rather than in memory: their number grows with the run, and
// held in memory they would grow live_heap_mb with it.
type replyLog struct {
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
}

func newReplyLog() (*replyLog, error) {
	if err := os.MkdirAll(replyLogDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(replyLogDir, "churn-replies-*.jsonl")
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &replyLog{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

func (l *replyLog) add(rep churnReply) error { return l.enc.Encode(rep) }

// read returns every logged reply and removes the log.
func (l *replyLog) read() ([]churnReply, error) {
	defer os.Remove(l.f.Name())
	defer l.f.Close()
	if err := l.bw.Flush(); err != nil {
		return nil, err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var out []churnReply
	dec := json.NewDecoder(bufio.NewReader(l.f))
	for {
		var rep churnReply
		if err := dec.Decode(&rep); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading the reply log: %w", err)
		}
		out = append(out, rep)
	}
}

// verify replays the stream from the seed, rebuilding the model round by
// round, and judges each recorded reply against it.
func (w *churnLoad) verify(ls *liveServer) (verdict, error) {
	g := newChurnGen(w.seed)
	failed := judge("churn host delete", &w.deletes, func(st int, body []byte) error {
		return expectStatus(st, 200, body)
	})
	failed += judge("churn host upload", &w.uploads, func(st int, body []byte) error {
		return checkUpload(st, body, g.initial.graph())
	})
	replies, err := w.log.read()
	if err != nil {
		return verdict{}, err
	}
	for r, rep := range replies {
		if r%churnPeriod == 0 {
			g.resetHost()
		}
		rd := g.next()
		for i, err := range w.checkRound(g, rd, rep) {
			if err != nil {
				if failed < 10 {
					fmt.Fprintf(os.Stderr, "churn round %d step %d failed: %v\n", r, i, err)
				}
				failed++
			}
		}
	}
	return verdict{failed: failed}, nil
}

func (w *churnLoad) checkRound(g *churnGen, rd churnRound, rep churnReply) [4]error {
	var errs [4]error
	for i, st := range rep.Status {
		if st != 200 {
			errs[i] = fmt.Errorf("status %d", st)
		}
	}
	host, m := g.host, g.members[rd.member]
	if errs[0] == nil && (rep.Host[0] != len(host.labels) || rep.Host[1] != len(host.live)) {
		errs[0] = fmt.Errorf("host has %d nodes / %d hyperedges, model %d / %d", rep.Host[0], rep.Host[1], len(host.labels), len(host.live))
	}
	if errs[1] == nil && (rep.Member[0] != len(m.Labels) || rep.Member[1] != len(m.Edges)) {
		errs[1] = fmt.Errorf("%s has %d nodes / %d hyperedges, model %d / %d", g.names[rd.member], rep.Member[0], rep.Member[1], len(m.Labels), len(m.Edges))
	}
	if errs[2] == nil {
		errs[2] = g.checkIsoSearch(rd.member, rep)
	}
	if errs[3] == nil {
		errs[3] = checkSigmaAnswers(rd.pairs, churnBudget, rep.Sigma, func(p nodePair) (int, error) {
			if p.U == p.V {
				return 0, nil
			}
			return OracleHGED(host.ego(p.U), host.ego(p.V))
		})
	}
	return errs
}

// checkIsoSearch: a τ=0 search for the member's model content returns, at
// distance 0, exactly the corpus members isomorphic to it — the member
// itself among them.
func (g *churnGen) checkIsoSearch(member int, rep churnReply) error {
	q := g.members[member]
	var want []string
	for j, m := range g.members {
		if Isomorphic(q, m) {
			want = append(want, g.names[j])
		}
	}
	got := append([]string(nil), rep.Matches...)
	sort.Strings(got)
	for _, d := range rep.Distance {
		if d != 0 {
			return fmt.Errorf("τ=0 match at distance %d", d)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("τ=0 search for %s returned %v, model %v", g.names[member], got, want)
	}
	return nil
}

// checkSigmaAnswers compares σ answers with the truth: within must agree
// with the budget, and a within answer carries the exact distance.
func checkSigmaAnswers(pairs []nodePair, budget int, got []sigmaAnswer, truth func(nodePair) (int, error)) error {
	if len(got) != len(pairs) {
		return fmt.Errorf("%d σ results for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		want, err := truth(p)
		if err != nil {
			return err
		}
		a := got[i]
		if a.U != p.U || a.V != p.V {
			return fmt.Errorf("result %d answers (%d,%d), asked (%d,%d)", i, a.U, a.V, p.U, p.V)
		}
		if a.Within != (want <= budget) || (a.Within && a.Distance != want) {
			return fmt.Errorf("σ(%d,%d) = %d within=%v; oracle %d, budget %d", p.U, p.V, a.Distance, a.Within, want, budget)
		}
	}
	return nil
}

func (w *churnLoad) dump(dir string) error {
	g := newChurnGen(w.seed)
	if err := os.WriteFile(filepath.Join(dir, "churn-host.hg"), []byte(g.host.graph().HGText()), 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	for j, m := range g.members {
		fmt.Fprintf(&sb, "# %s\n%s", g.names[j], m.HGText())
	}
	if err := os.WriteFile(filepath.Join(dir, "churn-members.hg"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	// The first 100 rounds: host batch, member batch, search, σ each.
	var reqs [][]byte
	for r := 0; r < 100; r++ {
		rd := g.next()
		reqs = append(reqs, rd.hostBody, mustMarshal(map[string]any{"member": g.names[rd.member], "batch": json.RawMessage(rd.memberBody)}), rd.searchBody, rd.sigmaBody)
	}
	return writeRequests(filepath.Join(dir, "churn-requests.json"), reqs)
}
