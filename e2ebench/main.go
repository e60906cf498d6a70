// Command e2ebench is the end-to-end benchmark of the hgedd service. It
// starts the real handler (server.New with the default Config) on a
// loopback listener, drives one workload over HTTP from a single client
// connection in a closed loop for a fixed time, checks every reply against
// a computation made apart from the code path under test, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	go run . --workload explain --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hged"
)

// spanDir is where the traced run writes its spans, relative to the
// working directory (the checkout root when run through run.sh).
const spanDir = ".bench_build/e2ebench-spans"

// replyLogDir holds reply logs while a run is judged.
const replyLogDir = ".bench_build/e2ebench-replies"

// Each run performs its set-up at least minSetups times and until the
// set-ups add up to setupSeconds (at most maxSetups times); setup_s is the
// median, so one slow start-up does not move it.
const (
	minSetups    = 5
	maxSetups    = 101
	setupSeconds = 2.0
)

// workload is one seeded traffic mix.
type workload interface {
	// setup loads a fresh server with everything the timed phase needs.
	setup(ls *liveServer) error
	// round sends one round of operations. Every round sends the same
	// kinds and number of operations, so failures are the same share of
	// every run.
	round(ls *liveServer, tr *tracer) error
	// verify judges the replies recorded during the timed phase.
	verify(ls *liveServer) (verdict, error)
	// dump writes the generated inputs to dir.
	dump(dir string) error
}

// verdict is how the judged operations came out.
type verdict struct {
	failed int // operations whose reply was rejected
	known  int // of which belong to the named known-fault class (search)
}

// correct reports whether every rejected reply is one of the known-fault
// class: any other rejection is a correctness regression.
func (v verdict) correct() bool { return v.failed == v.known }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(rng *rand.Rand) (workload, error){
	"explain": newExplain,
	"search":  newSearch,
	"churn":   newChurn,
	"predict": newPredict,
}

func main() {
	name := flag.String("workload", "", "workload: explain, search, churn or predict")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	dumpDir := flag.String("dump", "", "write the generated inputs to this directory and exit")
	steady := flag.Int("steady", 0, "repeat each workload over this many seeds and print the spread of every metric")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *dumpDir, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, dumpDir string, steady int) error {
	if steady > 0 {
		return steadiness(name, seed, seconds, steady)
	}
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be ≥ 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	fmt.Fprintf(os.Stderr, "workload=%s seed=%d GOMAXPROCS=%d NumCPU=%d\n", name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	w, err := mk(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if dumpDir != "" {
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			return err
		}
		return w.dump(dumpDir)
	}

	// Set up several servers; the last one serves the timed phase.
	var (
		ls     *liveServer
		setups []float64
		total  float64
	)
	for len(setups) < minSetups || (total < setupSeconds && len(setups) < maxSetups) {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		// Every set-up starts from a collected heap, so garbage left by
		// the previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		if ls, err = startServer(); err != nil {
			return err
		}
		if err := w.setup(ls); err != nil {
			_ = ls.stop() // the set-up error is the one to report
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	fmt.Fprintf(os.Stderr, "set-ups: %d, median %.4fs\n", len(setups), medianFloat(setups))
	res, err := timedPhase(ls, w, time.Duration(seconds)*time.Second, trace == 1, name, seed)
	if serr := ls.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping server: %w", serr)
	}
	if err != nil {
		return err
	}
	if trace == 0 {
		res.Metrics["setup_s"] = metric{medianFloat(setups), "s"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedPhase runs whole rounds until the time is up, then judges the
// replies. With tracing, the first half of the time runs untraced and the
// second half traced, and the difference gives the tracing overhead.
func timedPhase(ls *liveServer, w workload, length time.Duration, traced bool, name string, seed int64) (result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
		length /= 2
	}
	ph := beginPhase()
	deadline := ph.wall.Add(length)
	for time.Now().Before(deadline) {
		if err := w.round(ls, nil); err != nil {
			return result{}, err
		}
	}
	pr := ph.end(ls)
	if tr != nil {
		untraced := pr
		ls.lat, ls.respBytes = nil, 0
		tr.attach(ls)
		ph = beginPhase()
		deadline = ph.wall.Add(length)
		for time.Now().Before(deadline) {
			if err := w.round(ls, tr); err != nil {
				return result{}, err
			}
		}
		pr = ph.end(ls)
		tr.finish(ls, untraced, pr)
	}
	v, err := w.verify(ls)
	if err != nil {
		return result{}, err
	}
	if !v.correct() {
		fmt.Fprintf(os.Stderr, "%d of %d failed operations are outside the known-fault class\n", v.failed-v.known, v.failed)
	}
	res := result{Correct: v.correct(), Attempted: pr.ops, Failed: v.failed, Metrics: map[string]metric{}}
	if tr != nil {
		res.Attempted += tr.untracedOps
		tr.report(res.Metrics)
		return res, tr.writeSpans(spanDir, name, seed)
	}
	lat := sortedCopy(pr.lat)
	ops := float64(pr.ops)
	res.Metrics["throughput_ops_s"] = metric{ops / pr.wall.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(quantile(lat, 0.50)), "ms"}
	res.Metrics["latency_p90_ms"] = metric{ms(quantile(lat, 0.90)), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(pr.cpu) / ops, "ms"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(pr.allocBytes) / 1024 / ops, "KB"}
	res.Metrics["live_heap_mb"] = metric{float64(pr.liveHeap) / (1 << 20), "MB"}
	fmt.Fprintf(os.Stderr, "ops=%d wall=%.2fs failed=%d steal=%.1f%%\n", pr.ops, pr.wall.Seconds(), v.failed, pr.stealPct)
	return res, nil
}

// graphOf converts a library hypergraph into the benchmark's own model.
func graphOf(h *hged.Hypergraph) *Graph {
	g := &Graph{Labels: make([]int, h.NumNodes())}
	for v := range g.Labels {
		g.Labels[v] = int(h.NodeLabel(hged.NodeID(v)))
	}
	for _, e := range h.Edges() {
		ns := make([]int, len(e.Nodes))
		for i, v := range e.Nodes {
			ns[i] = int(v)
		}
		g.Edges = append(g.Edges, Edge{Label: int(e.Label), Nodes: ns})
	}
	return g
}

// libGraph converts the benchmark's model into a library hypergraph.
func libGraph(g *Graph) *hged.Hypergraph {
	labels := make([]hged.Label, len(g.Labels))
	for v, l := range g.Labels {
		labels[v] = hged.Label(l)
	}
	h := hged.NewLabeledHypergraph(labels)
	for _, e := range g.Edges {
		ns := make([]hged.NodeID, len(e.Nodes))
		for i, v := range e.Nodes {
			ns[i] = hged.NodeID(v)
		}
		h.AddEdge(hged.Label(e.Label), ns...)
	}
	return h
}
