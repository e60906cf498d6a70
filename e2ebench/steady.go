package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// workloadOrder is the order the steadiness report runs workloads in.
var workloadOrder = []string{"explain", "search", "churn", "predict"}

// steadiness runs each workload (or the named one) once per seed, seeds
// first..first+n-1, each in its own process, and prints every metric's
// median, quartiles and spread (interquartile distance over the median),
// plus the failed share of operations. The bounds in BENCHMARK.json are set
// from this report.
func steadiness(name string, first int64, seconds, n int) error {
	names := workloadOrder
	if name != "" && name != "all" {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < n; i++ {
			seed := first + int64(i)
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Printf("%s seed=%d %s\n", wl, seed, lines[len(lines)-1])
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("== %s: %d seeds from %d, %ds runs; failed/attempted %s\n", wl, n, first, seconds, strings.Join(shares, " "))
		fmt.Printf("%-18s %-6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
		for _, k := range keys {
			q := quartiles(values[k])
			fmt.Printf("%-18s %-6s %12.4f %12.4f %12.4f %7.1f%%\n", k, units[k], q[0], q[1], q[2], 100*(q[2]-q[0])/q[1])
		}
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), which is how the spread is judged.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
