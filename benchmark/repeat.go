package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the calibration mode needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat is the calibration mode, the acceptance driver's procedure: every
// workload of BENCHMARK.json (or only the named one), n untraced runs each in
// a fresh child process with seeds seed..seed+n-1, then per metric the median,
// the quartiles and the spread (Q3−Q1 over the median) against the metric's
// bound. It returns the process exit code: 1 when a run failed (that
// workload's spreads are then not reported) or a spread exceeds its bound.
func runRepeat(only string, n int, seed int64, seconds float64) int {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var mf manifest
	if err := json.Unmarshal(buf, &mf); err != nil {
		fmt.Fprintln(os.Stderr, "BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range mf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make(map[string][]float64)
		failed := 0
		for i := 0; i < n; i++ {
			res, err := runChild(self, w.Name, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.Name, seed+int64(i), err)
				failed++
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		if failed > 0 {
			fmt.Printf("%s: %d of %d runs failed\n", w.Name, failed, n)
			code = 1
			continue
		}
		fmt.Printf("%s (%d runs)\n", w.Name, n)
		for _, m := range mf.EndToEnd {
			vs := values[m.Name]
			q1, q2, q3 := quartiles(vs)
			spread := ratio(q3-q1, q2)
			mark := ""
			if spread > m.Bound {
				mark = "  << spread exceeds bound"
				code = 1
			}
			sort.Float64s(vs)
			fmt.Printf("  %-18s median %12.4f  q1 %12.4f  q3 %12.4f  min %12.4f  max %12.4f  spread %6.2f%%  bound %4.0f%%%s\n",
				m.Name, q2, q1, q3, vs[0], vs[len(vs)-1], 100*spread, 100*m.Bound, mark)
		}
	}
	return code
}

// runChild is one untraced run of one workload in a fresh process; a run that
// exits non-zero or prints no result line is an error.
func runChild(self, workload string, seed int64, seconds float64) (result, error) {
	out, err := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0").Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	err = json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}
