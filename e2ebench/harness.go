package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hged/internal/server"
)

// liveServer is one hgedd handler with default Config served on a loopback
// listener, plus the single keep-alive client connection the closed loop
// drives it through.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	buf    bytes.Buffer

	// Closed-loop accounting for the timed phase.
	lat       []time.Duration
	respBytes int64
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		srv:    server.New(server.Config{}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the listener, drains the job pool and waits for the serving
// goroutine to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	<-s.served
	s.client.CloseIdleConnections()
	return err
}

// call sends one request and returns the status and the response body,
// which stays valid until the next call. When timed, its latency joins the
// closed-loop sample.
func (s *liveServer) call(timed bool, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if timed {
		s.lat = append(s.lat, time.Since(start))
		s.respBytes += int64(s.buf.Len())
	}
	return resp.StatusCode, s.buf.Bytes(), nil
}

// mustJSON sends a JSON request outside the timed phase and decodes a
// 2xx reply into out (when non-nil).
func (s *liveServer) mustJSON(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	st, resp, err := s.call(false, method, path, body)
	if err != nil {
		return err
	}
	if st/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, st, strings.TrimSpace(string(resp)))
	}
	if out != nil {
		return json.Unmarshal(resp, out)
	}
	return nil
}

type upload struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Data   string `json:"data"`
}

func uploadBody(name string, g *Graph) []byte {
	b, _ := json.Marshal(upload{Name: name, Format: "hg", Data: g.HGText()}) // plain strings always marshal
	return b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase measures the process over the timed phase: wall time, CPU time
// and heap allocation.
type phase struct {
	steal      [2]int64 // steal and total CPU ticks of the machine
	wall       time.Time
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func beginPhase() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{steal: stealTicks(), wall: time.Now(), cpu: cpuTime(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// stealTicks reads the machine's steal and total CPU time from /proc/stat
// (zeros where it is unavailable). Time the hypervisor gives to other
// guests stretches wall-clock figures; the share is printed with each run.
func stealTicks() [2]int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var out [2]int64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		out[1] += v
		if i == 7 {
			out[0] = v
		}
	}
	return out
}

// phaseResult is what the timed phase measured.
type phaseResult struct {
	stealPct   float64
	wall, cpu  time.Duration
	allocBytes uint64
	liveHeap   uint64
	gcCycles   uint32
	gcPause    time.Duration
	ops        int
	lat        []time.Duration
	respBytes  int64
}

// end closes the phase: it reads the counters, then forces a collection
// and reads the live heap.
func (p phase) end(ls *liveServer) phaseResult {
	wall := time.Since(p.wall)
	cpu := cpuTime() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := stealTicks()
	r := phaseResult{
		stealPct: 100 * float64(st[0]-p.steal[0]) / float64(max(1, st[1]-p.steal[1])),
		wall:     wall, cpu: cpu,
		allocBytes: ms.TotalAlloc - p.totalAlloc,
		gcCycles:   ms.NumGC - p.numGC,
		gcPause:    time.Duration(ms.PauseTotalNs - p.pauseNs),
		ops:        len(ls.lat),
		lat:        ls.lat,
		respBytes:  ls.respBytes,
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch is not counted.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	return r
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
