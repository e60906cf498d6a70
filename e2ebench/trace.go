package main

// The traced run. After every timed operation the benchmark replays the
// operation's library calls on the same inputs, with a span around each
// call into a layer, and it reads the server's /metrics counters before and
// after the traced phase. Spans live in memory and are written out when the
// run ends. Per-layer figures come from the spans, the /metrics deltas and
// counters sampled around each HTTP call.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hged"
	"hged/internal/hypergraph"
)

// Layer names, after the repository's packages.
const (
	layerServer     = "server"
	layerHgio       = "hgio"
	layerHypergraph = "hypergraph"
	layerCore       = "core"
	layerSearch     = "search"
	layerPredict    = "predict"
)

var layers = []string{layerServer, layerHgio, layerHypergraph, layerCore, layerSearch, layerPredict}

// span is one timed call. Spans of one operation share Op; Parent is the
// id of the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans and per-layer counters for the traced phase.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int // operations begun
	open  []int

	untracedOps  int
	untracedWall time.Duration
	tracedWall   time.Duration
	replayTime   time.Duration
	untracked    time.Duration // wall time of untimed requests sent during the traced phase

	// Samples and counters.
	httpLat       map[int]time.Duration // op → HTTP round trip
	replayLat     map[int]time.Duration // op → library replay time
	indexWait     []time.Duration
	jobQueue      []time.Duration
	commitTimes   []time.Duration
	rebaseTimes   []time.Duration
	invalidNodes  int
	commits       int
	freezeBuilds  int64
	coreCalls     int
	coreExpanded  int64
	coreRootDone  int
	coreMallocs   uint64
	solves        int
	egoCalls      int
	decodedBytes  int64
	builds        []time.Duration
	predictSigma  predictCounts
	hepJobs       int
	hepSeeds      int
	hepComponents int
	hepExpanded   int64
	metricsBefore metricsView
	metricsAfter  metricsView
	phaseRes      phaseResult

	// Replay state: library graphs, σ predictors and search indexes
	// mirroring what the server holds.
	graphs    map[string]*hged.Hypergraph
	versions  map[string]*hged.VersionedGraph
	preds     map[string]*hged.Predictor
	index     *hged.SearchIndex
	indexKey  []string
	libByPtr  map[*Graph]*hged.Hypergraph
	sigmaSeen map[string]predictCounts
}

type predictCounts struct {
	computed, cached int
}

// metricsView is the part of GET /metrics the traced run reads.
type metricsView struct {
	HGED struct {
		Expansions int64 `json:"expansions"`
	} `json:"hged"`
	SigmaCache struct {
		Expanded int64 `json:"expanded"`
	} `json:"sigmaCache"`
	Search struct {
		Candidates     int64 `json:"candidates"`
		PrunedByCount  int64 `json:"prunedByCount"`
		PrunedByLabel  int64 `json:"prunedByLabel"`
		PrunedByCard   int64 `json:"prunedByCard"`
		PrunedByBound  int64 `json:"prunedByBound"`
		Verified       int64 `json:"verified"`
		VerifiedWithin int64 `json:"verifiedWithin"`
	} `json:"search"`
	Versions struct {
		IndexIncrements int64 `json:"indexIncrements"`
		IndexFullBuilds int64 `json:"indexFullBuilds"`
		IndexRowsReused int64 `json:"indexRowsReused"`
	} `json:"versions"`
}

// addDelta adds after − before to every counter of v.
func (v *metricsView) addDelta(after, before metricsView) {
	type counters = map[string]map[string]int64
	flat := func(m metricsView) counters {
		b, _ := json.Marshal(m) // int64 fields always marshal
		var out counters
		_ = json.Unmarshal(b, &out)
		return out
	}
	sum, a, b := flat(*v), flat(after), flat(before)
	for section, fields := range a {
		for k, x := range fields {
			sum[section][k] += x - b[section][k]
		}
	}
	out, _ := json.Marshal(sum)
	*v = metricsView{}
	_ = json.Unmarshal(out, v)
}

func newTracer() *tracer {
	return &tracer{
		httpLat: map[int]time.Duration{}, replayLat: map[int]time.Duration{},
		graphs: map[string]*hged.Hypergraph{}, versions: map[string]*hged.VersionedGraph{},
		preds: map[string]*hged.Predictor{}, libByPtr: map[*Graph]*hged.Hypergraph{},
		sigmaSeen: map[string]predictCounts{},
	}
}

// opName is the route of a request, with graph names folded away.
func opName(method, path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 3 && parts[2] == "graphs" {
		parts[3] = "{name}"
	}
	return method + " " + strings.Join(parts, "/")
}

// opSpan is the handle of an operation's root span.
type opSpan struct {
	op     int
	freeze int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) push(name, layer string, op int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Layer: layer, Start: t.now()})
	t.open = append(t.open, id)
}

func (t *tracer) pop() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// begin opens the root span of an operation's HTTP round trip. It is a
// no-op on a nil tracer, so untraced rounds pay nothing.
func (t *tracer) begin(name string) *opSpan {
	if t == nil {
		return nil
	}
	op := t.ops
	t.ops++
	s := &opSpan{op: op, freeze: hypergraph.FreezeBuilds()}
	t.push("http "+name, layerServer, op)
	return s
}

// end closes the HTTP span; CSR builds during the call are the server's.
func (t *tracer) end(s *opSpan) {
	if t == nil {
		return
	}
	t.httpLat[s.op] = t.pop()
	t.freezeBuilds += hypergraph.FreezeBuilds() - s.freeze
}

// call runs fn inside a span of the given layer, charged to the op's
// replay time.
func (t *tracer) call(s *opSpan, layer, name string, fn func()) time.Duration {
	if len(t.open) == 0 {
		t.push("replay", "bench", s.op)
		defer func() { t.replayLat[s.op] += t.pop() }()
	}
	t.push(name, layer, s.op)
	fn()
	return t.pop()
}

func (t *tracer) attach(ls *liveServer) {
	t.t0 = time.Now()
	if err := ls.mustJSON("GET", "/metrics", nil, &t.metricsBefore); err != nil {
		fmt.Fprintln(os.Stderr, "trace: reading /metrics:", err)
	}
}

func (t *tracer) finish(ls *liveServer, untraced, traced phaseResult) {
	if err := ls.mustJSON("GET", "/metrics", nil, &t.metricsAfter); err != nil {
		fmt.Fprintln(os.Stderr, "trace: reading /metrics:", err)
	}
	t.untracedOps, t.untracedWall = untraced.ops, untraced.wall
	t.tracedWall, t.phaseRes = traced.wall, traced
	for _, d := range t.replayLat {
		t.replayTime += d
	}
}

// lib returns the library form of a model graph, converted once.
func (t *tracer) lib(g *Graph) *hged.Hypergraph {
	h, ok := t.libByPtr[g]
	if !ok {
		h = libGraph(g)
		t.libByPtr[g] = h
	}
	return h
}

func (t *tracer) decode(s *opSpan, text string) *hged.Hypergraph {
	var g *hged.Hypergraph
	t.call(s, layerHgio, "hgio.ReadHG", func() {
		var err error
		if g, err = hged.ReadHG(strings.NewReader(text)); err != nil {
			panic(fmt.Sprintf("trace: replay decode of a graph the server accepted: %v", err))
		}
	})
	t.decodedBytes += int64(len(text))
	return g
}

// replayUpload decodes the uploaded graph and starts a fresh σ predictor
// for it, as the server does for a newly registered graph.
func (t *tracer) replayUpload(s *opSpan, body []byte) {
	var up upload
	if err := json.Unmarshal(body, &up); err != nil {
		return
	}
	g := t.decode(s, up.Data)
	if _, ok := t.versions[up.Name]; ok {
		// A versioned graph is registered afresh, at its first generation.
		t.versions[up.Name] = hged.NewVersionedGraph(g)
		g = t.versions[up.Name].Current().Graph()
	}
	t.graphs[up.Name] = g
	t.preds[up.Name] = nil
	t.sigmaSeen[up.Name] = predictCounts{}
}

// solve replays one /distance solve: both egos, the exact solver and the
// explanation encoding.
func (t *tracer) solve(s *opSpan, g *hged.Hypergraph, u, v int) {
	var eu, ev *hged.Hypergraph
	t.call(s, layerHypergraph, "hypergraph.Ego", func() {
		eu, ev = g.Ego(hged.NodeID(u)), g.Ego(hged.NodeID(v))
	})
	t.egoCalls += 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res hged.Result
	t.call(s, layerCore, "core.BFS", func() {
		res = hged.BFS(eu, ev, hged.Options{MaxExpansions: 2_000_000})
		if res.Path != nil {
			_ = hged.Explain(res.Path, nil)
			_ = hged.WritePathJSON(discard{}, res.Path)
		}
	})
	runtime.ReadMemStats(&after)
	t.coreMallocs += after.Mallocs - before.Mallocs
	t.solves++
	t.coreCalls++
	t.coreExpanded += res.Expanded
	if res.Expanded == 0 {
		t.coreRootDone++
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func (t *tracer) replayDistance(s *opSpan, name string, u, v int) {
	if g := t.graphs[name]; g != nil {
		t.solve(s, g, u, v)
	}
}

// replaySigma answers a σ batch from the replay predictor of the graph,
// which memoizes exactly as the server's does.
func (t *tracer) replaySigma(s *opSpan, name string, pairs []nodePair, budget int) {
	g := t.graphs[name]
	if g == nil {
		return
	}
	p := t.preds[name]
	if p == nil {
		var err error
		if p, err = hged.NewPredictor(g, hged.PredictOptions{MaxExpansions: 2_000_000}); err != nil {
			return
		}
		t.preds[name] = p
	}
	t.call(s, layerPredict, "predict.Sigma", func() {
		for _, pr := range pairs {
			p.Sigma(hged.NodeID(pr.U), hged.NodeID(pr.V), budget)
		}
	})
	// Counters survive a rebase, so deltas are taken per graph name.
	st := p.Stats()
	seen := t.sigmaSeen[name]
	t.predictSigma.computed += st.PairsComputed - seen.computed
	t.predictSigma.cached += st.PairsCached - seen.cached
	t.sigmaSeen[name] = predictCounts{st.PairsComputed, st.PairsCached}
}

// replaySearch decodes the query, runs it on a replay index over the same
// corpus, and re-solves the verifications that admitted each match.
func (t *tracer) replaySearch(s *opSpan, sq *searchQuery) {
	t.query(s, t.index, sq.replay, sq.tau, sq.k, sq.cap)
}

func (t *tracer) build(s *opSpan, fn func()) {
	t.builds = append(t.builds, t.call(s, layerSearch, "search.Build", fn))
}

func (t *tracer) query(s *opSpan, shared *hged.SearchIndex, text string, tau, k int, maxExp int64) {
	q := t.decode(s, text)
	ix := *shared
	ix.MaxExpansions = 2_000_000
	if maxExp > 0 {
		ix.MaxExpansions = maxExp
	}
	var matches []hged.SearchMatch
	t.call(s, layerSearch, "search.Search", func() {
		if k > 0 {
			matches, _, _ = ix.NearestContext(context.Background(), q, k)
		} else {
			matches, _, _ = ix.SearchContext(context.Background(), q, tau)
		}
	})
	for _, m := range matches {
		opts := hged.Options{Threshold: tau, MaxExpansions: ix.MaxExpansions}
		if k > 0 {
			opts.Threshold = 0
		}
		var res hged.Result
		t.call(s, layerCore, "core.BFS", func() { res = hged.BFS(q, ix.Graph(m.ID), opts) })
		t.coreCalls++
		t.coreExpanded += res.Expanded
		if res.Expanded == 0 {
			t.coreRootDone++
		}
	}
}

// startCorpus mirrors the server's corpus as versioned replay graphs, in
// the registry's (name) order, and builds the replay index over it.
func (t *tracer) startCorpus(names []string, graphs []*Graph) {
	libs := make([]*hged.Hypergraph, len(names))
	for i, n := range names {
		t.versions[n] = hged.NewVersionedGraph(libGraph(graphs[i]))
		libs[i] = t.versions[n].Current().Graph()
	}
	start := time.Now()
	t.index = hged.BuildSearchIndex(libs)
	t.builds = append(t.builds, time.Since(start))
	t.indexKey = names
}

type mutation struct {
	AddNodes []struct {
		Label int `json:"label"`
	} `json:"addNodes"`
	AddEdges []struct {
		Label int   `json:"label"`
		Nodes []int `json:"nodes"`
	} `json:"addEdges"`
	RemoveEdges []int `json:"removeEdges"`
}

// replayChurn mirrors one churn step on replay graphs: mutation batches
// commit on versioned graphs (rebasing the host's σ predictor), searches
// rebuild the index reusing unchanged rows, σ batches go to the rebased
// predictor.
func (t *tracer) replayChurn(s *opSpan, ls *liveServer, step int, name string, body []byte) {
	switch step {
	case 0, 1:
		var m mutation
		if json.Unmarshal(body, &m) != nil {
			return
		}
		vg := t.versions[name]
		var delta hged.GraphDelta
		var gen *hged.GraphGeneration
		d := t.call(s, layerHypergraph, "hypergraph.Commit", func() {
			b := vg.Begin()
			for _, n := range m.AddNodes {
				b.AddNode(hged.Label(n.Label))
			}
			for _, e := range m.AddEdges {
				ns := make([]hged.NodeID, len(e.Nodes))
				for i, v := range e.Nodes {
					ns[i] = hged.NodeID(v)
				}
				b.AddEdge(hged.Label(e.Label), ns...)
			}
			rm := append([]int(nil), m.RemoveEdges...)
			sort.Sort(sort.Reverse(sort.IntSlice(rm)))
			for _, id := range rm {
				b.RemoveEdge(hged.EdgeID(id))
			}
			gen, delta = b.Commit()
		})
		t.commitTimes = append(t.commitTimes, d)
		t.commits++
		for _, w := range delta.Invalid {
			t.invalidNodes += popcount(w)
		}
		if p := t.preds[name]; p != nil {
			t.rebaseTimes = append(t.rebaseTimes, t.call(s, layerPredict, "predict.Rebase", func() {
				t.preds[name] = p.Rebase(gen.Graph(), delta.Invalidates)
			}))
		}
		t.graphs[name] = gen.Graph()
	case 2:
		var req struct {
			Query struct{ Data string } `json:"query"`
		}
		if json.Unmarshal(body, &req) != nil {
			return
		}
		graphs := make([]*hged.Hypergraph, len(t.indexKey))
		reuse := make([]int, len(t.indexKey))
		for i, n := range t.indexKey {
			graphs[i] = t.versions[n].Current().Graph()
			reuse[i] = i
			if t.index.Graph(i) != graphs[i] {
				reuse[i] = -1
			}
		}
		prev := t.index
		t.build(s, func() { t.index = hged.BuildSearchIndexReusing(graphs, prev, reuse) })
		t.query(s, t.index, req.Query.Data, 0, 0, 0)
		// Index wait: the same search again, now on an unchanged corpus.
		// Its server work and wall time are taken out of the traced
		// phase's /metrics deltas and tracing overhead.
		start := time.Now()
		var m0, m1 metricsView
		err0 := ls.mustJSON("GET", "/metrics", nil, &m0)
		again := time.Now()
		_, _, err := ls.call(false, "POST", "/v1/search", body)
		d := time.Since(again)
		if err1 := ls.mustJSON("GET", "/metrics", nil, &m1); err0 == nil && err1 == nil {
			t.metricsBefore.addDelta(m1, m0)
		}
		if err == nil {
			t.indexWait = append(t.indexWait, t.httpLat[s.op]-d)
		}
		t.untracked += time.Since(start)
	case 3:
		var req struct {
			Pairs  [][2]int `json:"pairs"`
			Budget int      `json:"budget"`
		}
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if t.preds[name] == nil {
			t.graphs[name] = t.versions[name].Current().Graph()
		}
		pairs := make([]nodePair, len(req.Pairs))
		for i, p := range req.Pairs {
			pairs[i] = nodePair{p[0], p[1]}
		}
		t.replaySigma(s, name, pairs, req.Budget)
	}
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// replayPredict runs the job's HEP on a replay predictor and records how
// long the job waited in the server's queue.
func (t *tracer) replayPredict(s *opSpan, body []byte, g *Graph) {
	var v jobView
	if json.Unmarshal(body, &v) == nil && v.StartedAt != nil {
		t.jobQueue = append(t.jobQueue, v.StartedAt.Sub(v.CreatedAt))
	}
	h := t.lib(g)
	p, err := hged.NewPredictor(h, hged.PredictOptions{Lambda: predictLambda, Tau: predictTau})
	if err != nil {
		return
	}
	t.call(s, layerPredict, "predict.Run", func() { p.Run() })
	st := p.Stats()
	t.hepJobs++
	t.hepSeeds += st.Seeds
	t.hepComponents += st.Components
	t.hepExpanded += st.Expanded
	t.predictSigma.computed += st.PairsComputed
	t.predictSigma.cached += st.PairsCached
}

// selfTimes is each layer's span time minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range t.spans {
		out[sp.Layer] += time.Duration(sp.End - sp.Start - child[i])
	}
	return out
}

func (t *tracer) spanTime(name string) time.Duration {
	var d int64
	for _, sp := range t.spans {
		if sp.Name == name {
			d += sp.End - sp.Start
		}
	}
	return time.Duration(d)
}

func p50(ds []time.Duration) float64 { return ms(quantile(sortedCopy(ds), 0.5)) }

func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// report fills the per-layer metrics.
func (t *tracer) report(m map[string]metric) {
	ops := float64(t.phaseRes.ops)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var overhead []time.Duration
	for op, d := range t.httpLat {
		overhead = append(overhead, d-t.replayLat[op])
	}
	self := t.selfTimes()
	for _, l := range layers {
		set(l+".self_ms_per_op", "ms", per(ms(self[l]), ops))
	}
	set("server.overhead_ms_p50", "ms", p50(overhead))
	set("server.response_kb_per_op", "KB", per(float64(t.phaseRes.respBytes)/1024, ops))
	set("server.index_wait_ms_p50", "ms", p50(t.indexWait))
	set("server.job_queue_ms_p50", "ms", p50(t.jobQueue))

	b, a := t.metricsBefore, t.metricsAfter
	coreTime := t.spanTime("core.BFS")
	set("core.calls_per_op", "count", per(float64(t.coreCalls), ops))
	set("core.busy_ms_per_op", "ms", per(ms(coreTime), ops))
	set("core.expansions_per_op", "count", per(float64(t.coreExpanded), ops))
	set("core.server_expansions_per_op", "count", per(float64(a.HGED.Expansions-b.HGED.Expansions+a.SigmaCache.Expanded-b.SigmaCache.Expanded), ops))
	set("core.ns_per_expansion", "ns", per(float64(coreTime.Nanoseconds()), float64(t.coreExpanded)))
	set("core.root_decided_pct", "%", 100*per(float64(t.coreRootDone), float64(t.coreCalls)))
	set("core.allocs_per_call", "count", per(float64(t.coreMallocs), float64(t.solves)))

	set("hypergraph.ego_calls_per_op", "count", per(float64(t.egoCalls), ops))
	set("hypergraph.ego_ms_per_op", "ms", per(ms(t.spanTime("hypergraph.Ego")), ops))
	set("hypergraph.commits_per_op", "count", per(float64(t.commits), ops))
	set("hypergraph.commit_ms_p50", "ms", p50(t.commitTimes))
	set("hypergraph.invalid_nodes_per_commit", "count", per(float64(t.invalidNodes), float64(t.commits)))
	set("hypergraph.freeze_builds_per_op", "count", per(float64(t.freezeBuilds), ops))

	sd := func(f func(metricsView) int64) float64 { return per(float64(f(a)-f(b)), ops) }
	set("search.busy_ms_per_op", "ms", per(ms(t.spanTime("search.Search")), ops))
	set("search.candidates_per_op", "count", sd(func(v metricsView) int64 { return v.Search.Candidates }))
	set("search.pruned_count_per_op", "count", sd(func(v metricsView) int64 { return v.Search.PrunedByCount }))
	set("search.pruned_label_per_op", "count", sd(func(v metricsView) int64 { return v.Search.PrunedByLabel }))
	set("search.pruned_card_per_op", "count", sd(func(v metricsView) int64 { return v.Search.PrunedByCard }))
	set("search.pruned_bound_per_op", "count", sd(func(v metricsView) int64 { return v.Search.PrunedByBound }))
	set("search.verified_per_op", "count", sd(func(v metricsView) int64 { return v.Search.Verified }))
	set("search.verified_within_per_op", "count", sd(func(v metricsView) int64 { return v.Search.VerifiedWithin }))
	set("search.verify_yield_pct", "%", 100*per(float64(a.Search.VerifiedWithin-b.Search.VerifiedWithin), float64(a.Search.Verified-b.Search.Verified)))
	var buildTime time.Duration
	for _, d := range t.builds {
		buildTime += d
	}
	set("search.index_build_ms", "ms", per(ms(buildTime), float64(len(t.builds))))
	inc := float64(a.Versions.IndexIncrements - b.Versions.IndexIncrements)
	full := float64(a.Versions.IndexFullBuilds - b.Versions.IndexFullBuilds)
	set("search.rows_reused_per_build", "count", per(float64(a.Versions.IndexRowsReused-b.Versions.IndexRowsReused), inc+full))
	set("search.builds_incremental_per_op", "count", per(inc, ops))
	set("search.builds_full_per_op", "count", per(full, ops))

	set("predict.sigma_ms_per_op", "ms", per(ms(t.spanTime("predict.Sigma")), ops))
	set("predict.pairs_computed_per_op", "count", per(float64(t.predictSigma.computed), ops))
	set("predict.pairs_cached_per_op", "count", per(float64(t.predictSigma.cached), ops))
	set("predict.memo_hit_pct", "%", 100*per(float64(t.predictSigma.cached), float64(t.predictSigma.cached+t.predictSigma.computed)))
	set("predict.hep_ms_per_job", "ms", per(ms(t.spanTime("predict.Run")), float64(t.hepJobs)))
	set("predict.seeds_per_job", "count", per(float64(t.hepSeeds), float64(t.hepJobs)))
	set("predict.components_per_job", "count", per(float64(t.hepComponents), float64(t.hepJobs)))
	set("predict.expanded_per_job", "count", per(float64(t.hepExpanded), float64(t.hepJobs)))
	set("predict.rebase_ms_p50", "ms", p50(t.rebaseTimes))

	decode := t.spanTime("hgio.ReadHG")
	set("hgio.decode_ms_per_op", "ms", per(ms(decode), ops))
	set("hgio.decode_mb_s", "MB/s", per(float64(t.decodedBytes)/(1<<20), decode.Seconds()))

	set("runtime.gc_cycles_per_op", "count", per(float64(t.phaseRes.gcCycles), ops))
	set("runtime.gc_pause_ms_per_op", "ms", per(ms(t.phaseRes.gcPause), ops))

	tracedPerOp := per(ms(t.tracedWall-t.replayTime-t.untracked), ops)
	untracedPerOp := per(ms(t.untracedWall), float64(t.untracedOps))
	set("trace.overhead_ms_per_op", "ms", tracedPerOp-untracedPerOp)
	set("trace.replay_ms_per_op", "ms", per(ms(t.replayTime), ops))
	set("trace.spans_per_op", "count", per(float64(len(t.spans)), ops))
}

// writeSpans stores the spans as JSON under dir.
func (t *tracer) writeSpans(dir, name string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", name, seed))
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, b, 0o644)
}
