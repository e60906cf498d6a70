package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// Each workload's check must accept the server's genuine reply and reject
// the same reply corrupted in a way the check exists to catch.

func startTestServer(t *testing.T) *liveServer {
	t.Helper()
	ls, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ls.stop(); err != nil {
			t.Error(err)
		}
	})
	return ls
}

// edit decodes a JSON reply, lets fn change it, and re-encodes it.
func edit(t *testing.T, body []byte, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestExplainChecksRejectCorruptedReplies(t *testing.T) {
	wl, err := newExplain(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ls := startTestServer(t)
	if err := wl.setup(ls); err != nil {
		t.Fatal(err)
	}
	w := wl.(*explainLoad).graphs[0] // HS
	// A pair with a non-empty edit path.
	var p nodePair
	var body []byte
	for _, cand := range w.distance {
		if err := ls.mustJSON("POST", "/v1/graphs/hs/distance", map[string]any{"u": cand.U, "v": cand.V, "explain": true}, nil); err != nil {
			t.Fatal(err)
		}
		if d, _ := w.hged(cand); d >= 3 {
			_, resp, err := ls.call(false, "POST", "/v1/graphs/hs/distance", mustMarshal(map[string]any{"u": cand.U, "v": cand.V, "explain": true}))
			if err != nil {
				t.Fatal(err)
			}
			p, body = cand, append([]byte(nil), resp...)
			break
		}
	}
	if body == nil {
		t.Fatal("no pair at distance ≥ 3")
	}
	if err := w.checkDistance(p, body); err != nil {
		t.Fatalf("genuine reply rejected: %v", err)
	}
	corrupt := map[string]func(m map[string]any){
		"distance off by one": func(m map[string]any) { m["distance"] = m["distance"].(float64) + 1 },
		"operation dropped": func(m map[string]any) {
			ops := m["ops"].([]any)
			m["ops"] = ops[1:]
			m["distance"] = m["distance"].(float64) - 1
		},
		"bound below oracle": func(m map[string]any) {
			m["exact"] = false
			m["distance"] = m["distance"].(float64) - 1
		},
		"operation retargeted": func(m map[string]any) {
			op := m["ops"].([]any)[0].(map[string]any)
			op["kind"] = "node-relabel"
			op["node"] = 0.0
			op["label"] = 99.0
			delete(op, "edge")
		},
	}
	for name, fn := range corrupt {
		if err := w.checkDistance(p, edit(t, body, fn)); err == nil {
			t.Errorf("%s: corrupted distance reply accepted", name)
		}
	}

	batch := w.sigma[0]
	sb := mustMarshal(map[string]any{"pairs": [][2]int{{batch[0].U, batch[0].V}}, "budget": explainBudget})
	_, resp, err := ls.call(false, "POST", "/v1/graphs/hs/sigma", sb)
	if err != nil {
		t.Fatal(err)
	}
	one := []nodePair{batch[0]}
	good := append([]byte(nil), resp...)
	if err := w.checkSigma(one, good); err != nil {
		t.Fatalf("genuine σ reply rejected: %v", err)
	}
	flipped := edit(t, good, func(m map[string]any) {
		r := m["results"].([]any)[0].(map[string]any)
		r["within"] = !r["within"].(bool)
	})
	if err := w.checkSigma(one, flipped); err == nil {
		t.Error("σ reply with a flipped within flag accepted")
	}
	if err := checkUpload(201, []byte(`{"stats":{"Nodes":1,"Edges":1}}`), w.g); err == nil {
		t.Error("upload reply with wrong sizes accepted")
	}
}

// tinySearch is a search workload over a hand-sized corpus.
func tinySearch(t *testing.T) *searchLoad {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	w := &searchLoad{}
	base := randomSmall(rng)
	for i := 0; i < 12; i++ {
		w.addMember("m"+string(rune('a'+i)), perturb(rng, base, i%4))
	}
	w.queries = []searchQuery{{q: perturb(rng, base, 1), tau: 2}, {q: perturb(rng, base, 2), k: 3}}
	if err := w.distanceTable(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSearchChecksRejectCorruptedReplies(t *testing.T) {
	w := tinySearch(t)
	for i, sq := range w.queries {
		// The genuine answer from the table, in the server's wire form.
		type match struct {
			Name     string `json:"name"`
			Distance int    `json:"distance"`
		}
		var ms []match
		for j, d := range w.dist[i] {
			if d >= 0 && (sq.k > 0 || d <= sq.tau) {
				ms = append(ms, match{w.names[j], d})
			}
		}
		if sq.k > 0 {
			// Keep the k nearest.
			for a := range ms {
				for b := a + 1; b < len(ms); b++ {
					if ms[b].Distance < ms[a].Distance {
						ms[a], ms[b] = ms[b], ms[a]
					}
				}
			}
			if len(ms) > sq.k {
				ms = ms[:sq.k]
			}
		}
		if len(ms) == 0 {
			t.Fatalf("query %d has no matches; pick another seed", i)
		}
		good := mustMarshal(map[string]any{"matches": ms})
		if err := w.check(i, good); err != nil {
			t.Fatalf("query %d: genuine reply rejected: %v", i, err)
		}
		var far string
		for j, d := range w.dist[i] {
			if d < 0 {
				far = w.names[j]
			}
		}
		bad := map[string][]match{
			"match dropped":       ms[1:],
			"distance shifted":    append([]match{{ms[0].Name, ms[0].Distance + 1}}, ms[1:]...),
			"far member added":    append(append([]match(nil), ms...), match{far, 1}),
			"unknown name":        append([]match{{"nope", ms[0].Distance}}, ms[1:]...),
			"member listed twice": append(append([]match(nil), ms...), ms[0]),
		}
		for name, m := range bad {
			if err := w.check(i, mustMarshal(map[string]any{"matches": m})); err == nil {
				t.Errorf("query %d: %s accepted", i, name)
			}
		}
	}
}

// A rejected reply outside the known-fault class must turn the run's
// verdict incorrect; a rejected known-fault query must not.
func TestSearchVerdictSeparatesKnownFault(t *testing.T) {
	w := tinySearch(t)
	fp := faultPairs[0]
	w.addMember("fault-0", fp[1])
	// The range query of the tiny mix, then a known-fault query.
	w.queries = append(w.queries[:1], searchQuery{q: fp[0], tau: faultTau, cap: faultCap, fault: true})
	if err := w.distanceTable(); err != nil {
		t.Fatal(err)
	}
	type match struct {
		Name     string `json:"name"`
		Distance int    `json:"distance"`
	}
	genuine := func(i int) []byte {
		sq := w.queries[i]
		ms := []match{}
		for j, d := range w.dist[i] {
			if d >= 0 && d <= sq.tau {
				ms = append(ms, match{w.names[j], d})
			}
		}
		return mustMarshal(map[string]any{"matches": ms})
	}
	rangeQ, faultQ := 0, 1
	aboveTau := mustMarshal(map[string]any{"matches": []match{{"fault-0", faultTau + 5}}})
	cases := []struct {
		name          string
		rangeReply    []byte
		faultReply    []byte
		failed, known int
		correct       bool
	}{
		{"all genuine", genuine(rangeQ), genuine(faultQ), 0, 0, true},
		{"known fault shows", genuine(rangeQ), aboveTau, 1, 1, true},
		{"range reply corrupted", aboveTau, genuine(faultQ), 1, 0, false},
		{"both rejected", aboveTau, aboveTau, 2, 1, false},
	}
	for _, c := range cases {
		w.replies = make([]replySet, 2)
		w.replies[rangeQ].add(200, c.rangeReply)
		w.replies[faultQ].add(200, c.faultReply)
		v, err := w.verify(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.failed != c.failed || v.known != c.known || v.correct() != c.correct {
			t.Errorf("%s: verdict %+v correct=%v, want failed %d known %d correct=%v", c.name, v, v.correct(), c.failed, c.known, c.correct)
		}
	}
}

// The churn model's incidence-list ego must equal the reference Ego on the
// model's whole content.
func TestHostEgoMatchesGraphEgo(t *testing.T) {
	g := newChurnGen(5)
	for r := 0; r < 200; r++ {
		g.next()
		hg := g.host.graph()
		for _, v := range g.host.recent {
			if a, b := g.host.ego(v), hg.Ego(v); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("round %d node %d: ego %v, want %v", r, v, a, b)
			}
		}
	}
}

func TestChurnChecksRejectCorruptedReplies(t *testing.T) {
	g := newChurnGen(9)
	ls := startTestServer(t)
	if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(uploadBody(churnHost, g.host.graph())), nil); err != nil {
		t.Fatal(err)
	}
	for i, m := range g.members {
		if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(uploadBody(g.names[i], m)), nil); err != nil {
			t.Fatal(err)
		}
	}
	w := &churnLoad{}
	for r := 0; r < 5; r++ {
		rd := g.next()
		var rep churnReply
		member := g.names[rd.member]
		for i, req := range []struct {
			path string
			body []byte
		}{
			{"/v1/graphs/host/edges", rd.hostBody},
			{"/v1/graphs/" + member + "/edges", rd.memberBody},
			{"/v1/search", rd.searchBody},
			{"/v1/graphs/host/sigma", rd.sigmaBody},
		} {
			st, resp, err := ls.call(false, "POST", req.path, req.body)
			if err != nil {
				t.Fatal(err)
			}
			rep.Status[i] = st
			if err := rep.parse(i, resp); err != nil {
				t.Fatal(err)
			}
		}
		for i, err := range w.checkRound(g, rd, rep) {
			if err != nil {
				t.Fatalf("round %d step %d: genuine reply rejected: %v", r, i, err)
			}
		}
		corrupt := []func(c *churnReply){
			func(c *churnReply) { c.Host[0]++ },
			func(c *churnReply) { c.Member[1]-- },
			func(c *churnReply) { c.Matches = nil; c.Distance = nil },
			func(c *churnReply) { c.Distance = append([]int(nil), c.Distance...); c.Distance[0] = 1 },
			func(c *churnReply) {
				c.Sigma = append([]sigmaAnswer(nil), c.Sigma...)
				c.Sigma[0].Within = !c.Sigma[0].Within
			},
			func(c *churnReply) { c.Status[2] = 500 },
		}
		for k, fn := range corrupt {
			c := rep
			fn(&c)
			rejected := false
			for _, err := range w.checkRound(g, rd, c) {
				rejected = rejected || err != nil
			}
			if !rejected {
				t.Errorf("round %d: corruption %d accepted", r, k)
			}
		}
	}
}

func TestPredictChecksRejectCorruptedReplies(t *testing.T) {
	// Two triangles of one label joined by hyperedges: {0,1,2} is a
	// (λ,τ)-hyperedge candidate, {0,5} is not (its nodes' egos differ).
	g := &Graph{
		Labels: []int{1, 1, 1, 1, 1, 2},
		Edges: []Edge{
			NewEdge(10, 0, 1), NewEdge(10, 1, 2), NewEdge(10, 0, 2),
			NewEdge(10, 3, 4), NewEdge(11, 4, 5), NewEdge(11, 3, 5), NewEdge(12, 2, 3, 4, 5),
		},
	}
	good := [][]int{{0, 1, 2}}
	if err := checkPredictions(g, good); err != nil {
		t.Fatalf("valid prediction rejected: %v", err)
	}
	bad := map[string][][]int{
		"unsorted":          {{1, 0, 2}},
		"too small":         {{3}},
		"existing":          {{0, 1}},
		"listed twice":      {{0, 1, 2}, {0, 1, 2}},
		"unknown node":      {{0, 9}},
		"violates σ bounds": {{0, 1, 2, 3, 4, 5}},
	}
	for name, preds := range bad {
		if err := checkPredictions(g, preds); err == nil {
			t.Errorf("%s prediction accepted", name)
		}
	}
	if _, err := predictionsOf(200, []byte(`{"state":"failed","error":"boom"}`)); err == nil {
		t.Error("failed job accepted")
	}
}
