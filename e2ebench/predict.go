package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hged"
	"hged/internal/core"
)

const (
	predictLambda  = 2
	predictTau     = 2
	predictMinSize = 2
	predictMaxSize = 8
	plantedGraphs  = 8
	hsJobs         = 2 // HS jobs per round: a fifth of the jobs, so p90 falls among them
)

// predictLoad runs HEP jobs one at a time on the HS replica and on seeded
// planted-community graphs. An operation is a job: submit, wait for it to
// finish, fetch its predictions. A round runs one job per planted graph
// and hsJobs on HS.
type predictLoad struct {
	names   []string
	graphs  []*Graph
	uploads [][]byte
	body    []byte
	replies []replySet // per graph: the distinct job outcomes fetched
}

func newPredict(rng *rand.Rand) (workload, error) {
	hs, err := replica("HS")
	if err != nil {
		return nil, err
	}
	w := &predictLoad{}
	w.add("hs", hs)
	for i := 0; i < plantedGraphs; i++ {
		h, _, err := hged.GeneratePlanted(hged.GenConfig{
			Nodes: 100, Edges: 150, MeanEdgeSize: 3, NodeLabelCount: 3, Seed: rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		w.add(fmt.Sprintf("planted-%d", i), graphOf(h))
	}
	w.body = mustMarshal(map[string]any{"lambda": predictLambda, "tau": predictTau})
	w.replies = make([]replySet, len(w.graphs))
	return w, nil
}

func (w *predictLoad) add(name string, g *Graph) {
	w.names = append(w.names, name)
	w.graphs = append(w.graphs, g)
	w.uploads = append(w.uploads, uploadBody(name, g))
}

func (w *predictLoad) setup(ls *liveServer) error {
	for _, u := range w.uploads {
		if err := ls.mustJSON("POST", "/v1/graphs", json.RawMessage(u), nil); err != nil {
			return err
		}
	}
	return nil
}

type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	Predictions []struct {
		Nodes []int `json:"nodes"`
	} `json:"predictions"`
	CreatedAt time.Time  `json:"createdAt"`
	StartedAt *time.Time `json:"startedAt"`
}

// runJob submits one job, waits on its Done channel and fetches the view.
// The whole sequence is one operation and one latency sample.
func (w *predictLoad) runJob(ls *liveServer, timed bool, i int, body []byte) (int, []byte, error) {
	start := time.Now()
	st, resp, err := ls.call(false, "POST", "/v1/graphs/"+w.names[i]+"/predict", body)
	if err != nil {
		return 0, nil, err
	}
	if st != 202 {
		return st, append([]byte(nil), resp...), nil
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(resp, &sub); err != nil {
		return 0, nil, err
	}
	job, ok := ls.srv.Jobs().Get(sub.ID)
	if !ok {
		return 0, nil, fmt.Errorf("job %s vanished", sub.ID)
	}
	<-job.Done()
	st, resp, err = ls.call(false, "GET", "/v1/jobs/"+sub.ID, nil)
	if err != nil {
		return 0, nil, err
	}
	if timed {
		ls.lat = append(ls.lat, time.Since(start))
		ls.respBytes += int64(len(resp))
	}
	return st, resp, nil
}

func (w *predictLoad) round(ls *liveServer, tr *tracer) error {
	for k := 0; k < len(w.graphs)+hsJobs-1; k++ {
		i := max(0, k-hsJobs+1) // graph 0 is HS
		op := tr.begin("job " + w.names[i])
		st, resp, err := w.runJob(ls, true, i, w.body)
		tr.end(op)
		if err != nil {
			return err
		}
		// Job views differ in ids and timestamps; the outcome is what is
		// judged.
		st, out := jobOutcome(st, resp)
		w.replies[i].add(st, out)
		if tr != nil {
			tr.replayPredict(op, resp, w.graphs[i])
		}
	}
	return nil
}

func (w *predictLoad) verify(ls *liveServer) (verdict, error) {
	failed := 0
	for i := range w.graphs {
		// The same job at parallelism 2, outside the timed phase: its
		// predictions must be identical.
		st, par, err := w.runJob(ls, false, i, mustMarshal(map[string]any{"lambda": predictLambda, "tau": predictTau, "parallelism": 2}))
		if err != nil {
			return verdict{}, err
		}
		parPreds, perr := predictionsOf(jobOutcome(st, par))
		failed += judge("predict "+w.names[i], &w.replies[i], func(st int, body []byte) error {
			preds, err := predictionsOf(st, body)
			if err != nil {
				return err
			}
			if perr != nil {
				return fmt.Errorf("parallelism-2 job: %v", perr)
			}
			if fmt.Sprint(preds) != fmt.Sprint(parPreds) {
				return fmt.Errorf("predictions differ between parallelism 1 (%d) and 2 (%d)", len(preds), len(parPreds))
			}
			fmt.Fprintf(os.Stderr, "predict %s: %d predictions\n", w.names[i], len(preds))
			return checkPredictions(w.graphs[i], preds)
		})
	}
	return verdict{failed: failed}, nil
}

// jobOutcome reduces a fetched job view to its state, error and
// predictions.
func jobOutcome(status int, body []byte) (int, []byte) {
	if status != 200 {
		return status, append([]byte(nil), body...)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return -1, append([]byte(nil), body...)
	}
	v.ID, v.CreatedAt, v.StartedAt = "", time.Time{}, nil
	return status, mustMarshal(v)
}

func predictionsOf(status int, body []byte) ([][]int, error) {
	if err := expectStatus(status, 200, body); err != nil {
		return nil, err
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if v.State != "done" {
		return nil, fmt.Errorf("job ended %s: %s", v.State, v.Error)
	}
	out := make([][]int, len(v.Predictions))
	for i, p := range v.Predictions {
		out[i] = p.Nodes
	}
	return out, nil
}

// checkPredictions: every prediction is a sorted, duplicate-free node set
// of allowed size, not an existing hyperedge, listed once, and a
// (λ,τ)-hyperedge by Definition 4.
func checkPredictions(g *Graph, preds [][]int) error {
	existing := map[string]bool{}
	for _, e := range g.Edges {
		existing[fmt.Sprint(e.Nodes)] = true
	}
	seen := map[string]bool{}
	for _, s := range preds {
		key := fmt.Sprint(s)
		switch {
		case len(s) < predictMinSize || len(s) > predictMaxSize:
			return fmt.Errorf("prediction %v has size %d outside [%d,%d]", s, len(s), predictMinSize, predictMaxSize)
		case !sort.IntsAreSorted(s) || len(NewEdge(0, s...).Nodes) != len(s):
			return fmt.Errorf("prediction %v is not a sorted set", s)
		case s[0] < 0 || s[len(s)-1] >= len(g.Labels):
			return fmt.Errorf("prediction %v names an unknown node", s)
		case seen[key]:
			return fmt.Errorf("prediction %v listed twice", s)
		case existing[key]:
			return fmt.Errorf("prediction %v is an existing hyperedge", s)
		}
		seen[key] = true
		if err := checkDefinition4(g, s); err != nil {
			return fmt.Errorf("prediction %v: %v", s, err)
		}
	}
	return nil
}

// checkDefinition4: inside G_S, σ ≤ τ for every pair sharing a hyperedge
// and σ ≤ λτ for every pair. σ comes from the oracle when the ego pair fits
// it, from a direct exact solver call otherwise.
func checkDefinition4(g *Graph, s []int) error {
	in := map[int]bool{}
	for _, v := range s {
		in[v] = true
	}
	sub := g.Induced(in)
	n := len(sub.Labels)
	egos := make([]*Graph, n)
	for v := range egos {
		egos[v] = sub.Ego(v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			budget := predictLambda * predictTau
			for _, e := range sub.Edges {
				if containsSorted(e.Nodes, u) && containsSorted(e.Nodes, v) {
					budget = predictTau
					break
				}
			}
			var d int
			if OracleFits(egos[u], egos[v]) {
				d, _ = OracleHGED(egos[u], egos[v])
			} else {
				r := core.BFS(libGraph(egos[u]), libGraph(egos[v]), core.Options{Threshold: budget, MaxExpansions: 1 << 40})
				d = r.Distance
				if r.Exceeded {
					d = budget + 1
				}
			}
			if d > budget {
				return fmt.Errorf("σ_GS(%d,%d) > %d", s[u], s[v], budget)
			}
		}
	}
	return nil
}

func (w *predictLoad) dump(dir string) error {
	for i, g := range w.graphs {
		if err := os.WriteFile(filepath.Join(dir, "predict-"+w.names[i]+".hg"), []byte(g.HGText()), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "predict-request.json"), append(w.body, '\n'), 0o644)
}
