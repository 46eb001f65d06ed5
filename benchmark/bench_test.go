package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"mip/internal/obs"
)

func TestMain(m *testing.M) {
	obs.SetLogOutput(io.Discard, slog.LevelError)
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10001, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10} {
		if got := percentile(append([]float64(nil), vals...), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles(3,1,4,1,5,9,2) = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping counted once", []span{{Start: 110, End: 140}, {Start: 120, End: 150}}, 60},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 0, End: 90}, {Start: 250, End: 300}}, 100},
		{"covering", []span{{Start: 0, End: 300}}, 0},
	} {
		if got := selfNanos(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
		var gaps int64
		for _, g := range uncovered(parent, c.children) {
			if g.Start < parent.Start || g.End > parent.End || g.dur() <= 0 {
				t.Errorf("%s: uncovered interval %d..%d", c.name, g.Start, g.End)
			}
			gaps += g.dur()
		}
		if gaps != c.want {
			t.Errorf("%s: uncovered intervals add up to %d, want %d", c.name, gaps, c.want)
		}
	}
}

// The op sequence is a pure function of (seed, client, cycle): the same seed
// replays it, another seed changes constants but neither counts nor classes.
func TestOpSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		constants := false
		for client := 0; client < w.clients; client++ {
			for cycle := 0; cycle < 3; cycle++ {
				a, b := w.ops(7, client, cycle), w.ops(7, client, cycle)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: same seed gave different ops (client %d cycle %d)", w.name, client, cycle)
				}
				other := w.ops(8, client, cycle)
				if len(other) != len(a) {
					t.Fatalf("%s: op count depends on the seed: %d vs %d", w.name, len(a), len(other))
				}
				kinds := func(ops []op) (n [4]int) {
					for _, o := range ops {
						n[o.kind]++
					}
					return n
				}
				if kinds(a) != kinds(other) {
					t.Errorf("%s: op mix depends on the seed: %v vs %v", w.name, kinds(a), kinds(other))
				}
				for i := range a {
					if a[i].sql != other[i].sql {
						constants = true
					}
				}
			}
		}
		if hasSQL := w.ops(7, 0, 0)[0].kind != kindExperiment; hasSQL && !constants {
			t.Errorf("%s: another seed did not change any constant", w.name)
		}
	}
}

func TestManifestMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, mf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEndMetrics)
	same("per_layer", mf.PerLayer, perLayerMetrics)
}

// With one client the counts a workload produces are a function of the seed
// alone: two fresh topologies replaying the same cycles agree exactly.
func TestCountsDeterministicWithOneClient(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three topologies twice")
	}
	for name, counts := range map[string][]string{
		"dash_plain": {"wire.req_bytes_per_op", "wire.calls_per_op", "master.rounds_per_op", "engine.rows_scanned_per_op", "engine.queries_per_op"},
		"secure_ft":  {"smpc.messages_per_op", "smpc.bytes_per_op", "wire.req_bytes_per_op"},
		"replay_rw":  {"resultcache.hit_ratio", "wire.calls_per_op", "engine.rows_scanned_per_op"},
	} {
		w := workloadByName(name)
		once := func() map[string]float64 {
			rec := newRecorder()
			e, err := newEnv(w, 11, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			newClient(e, 0).run(0)
			rec.reset()
			before := e.readCounters()
			win := measure(e, 1, func(cycle int, _ time.Duration) bool { return cycle > 2 })
			m := e.layerMetrics(win, before, e.readCounters())
			for _, c := range win.clients {
				for _, o := range c.outcomes {
					if o.err != nil {
						t.Fatalf("%s: %s: %v", name, o.op.class, o.err)
					}
				}
			}
			return m
		}
		a, b := once(), once()
		for _, c := range counts {
			if a[c] != b[c] || a[c] == 0 || math.IsNaN(a[c]) {
				t.Errorf("%s: %s = %v then %v, want equal and non-zero", name, c, a[c], b[c])
			}
		}
	}
}
