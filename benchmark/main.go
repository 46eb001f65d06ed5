// Command benchmark is the repository's layered performance benchmark: five
// named workloads over the federated path (REST → queue → master → HTTP wire →
// worker → engine → SMPC), each run in its own process. One invocation builds
// the whole topology in this process, drives it with a closed-loop load
// generator for a fixed time, checks every result against a pooled reference,
// and prints one JSON object: the end-to-end metrics (untraced pass,
// -trace 0) or the per-layer metrics (traced pass, -trace 1). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mip/internal/obs"
)

// outDir holds run artefacts (trace dumps, spill files); it is git-ignored.
var outDir = filepath.Join("benchmark", "out")

// setupRepeats is how often set-up is repeated in one run; setup_s is the
// median, which drops the cold first build of a fresh process.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated tables and requests")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	repeat := flag.Int("repeat", 0, "calibration: run every workload (or only -workload) N times with seeds seed..seed+N-1 and report each end-to-end metric's spread against its bound")
	flag.Parse()

	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "warning: cpus < 2: the two load-generator clients and the topology share one core")
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*name, *repeat, *seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// The per-experiment log lines would otherwise make stderr I/O part of
	// what is measured.
	obs.SetLogOutput(io.Discard, slog.LevelError)

	res, lat, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(os.Stderr, w, *seed, res, lat)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// report prints the metrics by name with unit for a human reader.
func report(out io.Writer, w *workload, seed int64, res result, lat map[string][]float64) {
	fmt.Fprintf(out, "workload %s seed %d cpus %d clients %d (closed loop): attempted %d failed %d\n",
		w.name, seed, runtime.GOMAXPROCS(0), w.clients, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	classes := make([]string, 0, len(lat))
	for c := range lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "  class %-28s %14.4f ms p50 over %d samples\n", c, median(lat[c]), len(lat[c]))
	}
}

// run is one complete benchmark run of one workload.
func run(w *workload, seed int64, length time.Duration, traced bool) (result, map[string][]float64, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}

	// Set-up, repeated: data generation, topology build and a warm-up of one
	// full cycle of the op mix (the first cycle in a fresh process is much
	// slower than the rest). The last instance is the one measured.
	var e *env
	var warm *client
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = newEnv(w, seed, rec); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		warm = newClient(e, 0)
		warm.run(0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	// The window starts from a collected heap and a restarted high-water mark,
	// so that peak_rss_mb is the memory of the system under load and not of the
	// discarded set-ups. For the same reason the pooled reference, a second
	// copy of every table, is built only after the peak has been read.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v: peak_rss_mb includes set-up\n", err)
	}
	var before counters
	if traced {
		rec.reset()
		before = e.readCounters()
	}
	win := measure(e, w.clients, func(_ int, elapsed time.Duration) bool { return elapsed >= length })
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	var after counters
	if traced {
		after = e.readCounters()
	}

	// Check the warm-up and then every timed op against the reference, in
	// write-state order.
	ref, err := e.newReference()
	if err != nil {
		return result{}, nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	if failed, _, first := e.verify(ref, warm.outcomes); failed > 0 {
		return result{}, nil, fmt.Errorf("warm-up: %d of %d ops wrong, first: %w", failed, warm.attempted, first)
	}
	var outs []outcome
	for _, c := range win.clients {
		outs = append(outs, c.outcomes...)
	}
	sort.SliceStable(outs, func(i, j int) bool { return outs[i].state < outs[j].state })
	failed, stale, first := e.verify(ref, outs)
	win.stale = stale
	if first != nil {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed or wrong, first: %v\n", w.name, failed, win.ops, first)
	}

	res := result{Correct: failed == 0, Attempted: win.ops, Failed: failed, Metrics: make(map[string]metric)}
	if !traced {
		// latency_p50_ms is the typical op: each class's median, weighted by
		// the class's share of the ops. Unlike the pooled median of a mix of
		// unlike ops, which sits in whichever class happens to straddle the
		// middle, it moves in proportion when any one class gets faster.
		var all []float64
		var p50 float64
		for _, lat := range win.lat {
			all = append(all, lat...)
			p50 += median(lat) * float64(len(lat)) / float64(win.ops)
		}
		if p := tailPercentile(len(all)); p < 95 {
			fmt.Fprintf(os.Stderr, "warning: %d timed ops leave fewer than 10 samples beyond p95 (rule allows p%v)\n", len(all), p)
		}
		values := map[string]float64{
			"latency_p50_ms":   p50,
			"latency_p95_ms":   percentile(all, 95),
			"throughput_ops_s": ratio(float64(win.ops), win.wall.Seconds()),
			"peak_rss_mb":      rss,
			"setup_s":          median(setups),
		}
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		return res, win.lat, nil
	}

	values := e.layerMetrics(win, before, after)
	if w.name == "merge_ship" {
		if values["wire.encode_ms_per_mb"], values["wire.decode_ms_per_mb"], err = e.probeWire(); err != nil {
			return result{}, nil, fmt.Errorf("wire probe: %w", err)
		}
	}
	if w.topo.secure {
		if err := probeSMPC(seed, values); err != nil {
			return result{}, nil, fmt.Errorf("smpc probe: %w", err)
		}
	}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if err := rec.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return result{}, nil, err
	}
	return res, win.lat, nil
}

// measure is the measured window: n closed-loop clients each replay whole
// cycles (1, 2, ...) until done says so, so that every run times the same mix.
func measure(e *env, n int, done func(cycle int, elapsed time.Duration) bool) window {
	win := window{start: time.Now(), lat: make(map[string][]float64), clients: make([]*client, n)}
	busy := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range win.clients {
		c := newClient(e, i)
		win.clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for cycle := 1; !done(cycle, time.Since(win.start)); cycle++ {
				c.run(cycle)
			}
			busy[i] = time.Since(win.start)
		}(i)
	}
	wg.Wait()
	win.wall = time.Since(win.start)
	for i, c := range win.clients {
		win.ops += c.attempted
		win.inSystem += c.inSystem
		win.busy += busy[i]
		for class, lat := range c.lat {
			win.lat[class] = append(win.lat[class], lat...)
		}
	}
	return win
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
