package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"mip"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
	"mip/internal/synth"
)

// The perf suite (-bench-out FILE) measures the engine's core operators and
// one end-to-end federated experiment with testing.Benchmark, and writes the
// results as machine-readable JSON for CI artifacts ("make bench" →
// BENCH_engine.json). Unlike the experiment tables above, these are
// steady-state timings, not reproduction output.

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MemPeakBytes/SpillBytes come from one instrumented run of the
	// benchmark's statement (engine-accounted peak and spill volume, not
	// allocator stats). Machine-independent, so comparable across hosts;
	// comparePerf reports their deltas but never fails on them.
	MemPeakBytes int64 `json:"mem_peak_bytes,omitempty"`
	SpillBytes   int64 `json:"spill_bytes,omitempty"`
}

type benchReport struct {
	Suite   string        `json:"suite"`
	Go      string        `json:"go"`
	Arch    string        `json:"arch"`
	CPUs    int           `json:"cpus"`
	Results []benchResult `json:"results"`
	// Shipping records wire volume through the merge boundary for a fixed
	// federated workload — deterministic counts, not timings, so they are
	// directly comparable across machines. comparePerf ignores them.
	Shipping []shipResult `json:"shipping,omitempty"`
	// Caching records plan-cache and result-cache hit rates for a fixed
	// dashboard-replay workload. Deterministic for a given query mix, so
	// comparable across machines; comparePerf prints the deltas but never
	// fails on them.
	Caching []cacheResult `json:"caching,omitempty"`
}

type cacheResult struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	PlanHitRate   float64 `json:"plan_hit_rate"`
	ResultHitRate float64 `json:"result_hit_rate"`
}

type shipResult struct {
	Name         string `json:"name"`
	RowsShipped  int    `json:"rows_shipped"`
	BytesShipped int64  `json:"bytes_shipped"`
	PartSQL      string `json:"part_sql"`
}

// runPerfSuite executes the engine benchmark suite once, then writes the
// JSON report to benchOut (when set) and/or diffs it against the baseline
// report at comparePath (when set), exiting non-zero if any benchmark's
// ns/op or allocs/op regressed more than threshold percent. Any benchmark
// failure aborts the run with a non-zero exit.
func runPerfSuite(benchOut, comparePath string, threshold float64) {
	report := benchReport{Suite: "engine", Go: runtime.Version(), Arch: runtime.GOARCH, CPUs: runtime.NumCPU()}
	ncpu := runtime.NumCPU()
	for _, bench := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"scan_filter_100k", benchScanFilter},
		{"group_aggregate_synth", benchGroupAggregate},
		{"aggregate_over_join", benchAggregateOverJoin},
		{"merge_pushdown_4x2000", benchMergePushdown},
		{"explain_analyze_overhead", benchExplainAnalyze},
		{"federated_descriptive_stats", benchFederatedDescriptive},
		// Morsel-parallelism pairs: the same workload at parallelism 1 (the
		// serial oracle) and at NumCPU. On a multi-core box the parN rows
		// should come out well under the par1 rows; on one CPU they tie.
		{"parallel_scan_filter_1m_par1", parBench(1, benchParScanFilter)},
		{parName("parallel_scan_filter_1m", ncpu), parBench(ncpu, benchParScanFilter)},
		{"parallel_group_aggregate_500k_par1", parBench(1, benchParGroupAggregate)},
		{parName("parallel_group_aggregate_500k", ncpu), parBench(ncpu, benchParGroupAggregate)},
		{"parallel_hash_join_200k_par1", parBench(1, benchParHashJoin)},
		{parName("parallel_hash_join_200k", ncpu), parBench(ncpu, benchParHashJoin)},
		// High-cardinality grouping (~100k distinct keys over 500k rows):
		// the hash table outgrows every presized hint, so resize behaviour
		// shows up here as allocs/op and ns/op.
		{"parallel_group_agg_hicard_500k_par1", parBench(1, benchParGroupAggHiCard)},
		{parName("parallel_group_agg_hicard_500k", ncpu), parBench(ncpu, benchParGroupAggHiCard)},
		// Memory-accounting pairs: the same workloads with the per-query
		// accountant and governance enabled (the default) and disabled. The
		// acct_on rows bound the governance overhead — they should land within
		// a few percent of acct_off.
		{"group_aggregate_500k_acct_off", acctBench(false, benchAcctGroupAggregate)},
		{"group_aggregate_500k_acct_on", acctBench(true, benchAcctGroupAggregate)},
		{"hash_join_200k_acct_off", acctBench(false, benchAcctHashJoin)},
		{"hash_join_200k_acct_on", acctBench(true, benchAcctHashJoin)},
		// Spill pair: a 1M-row join feeding a grouped aggregate, unbudgeted
		// and under an 8 MB budget with a spill directory. The spill row's
		// mem_peak_bytes should land far below the unbudgeted row's: the
		// join indexes only the partitions that fit in each of its passes,
		// and the streamed aggregate reads its output batch by batch. Its
		// spill_bytes are only the join's output pairs past the budget; what
		// proves the budget took effect is the join's pass count, the build
		// partitions it left to later passes (its EXPLAIN ANALYZE
		// [spill=N parts …] bracket).
		{"hash_join_1m_agg", spillBench(0, benchJoinAggSpill)},
		{"hash_join_1m_agg_spill_8mb", spillBench(8<<20, benchJoinAggSpill)},
		// Parallel ORDER BY pair: a full 1M-row sort at parallelism 1 (the
		// serial oracle) and at NumCPU. The radix sort is stable from row
		// order, so every tie breaks on global row index, output is
		// bit-identical at any parallelism and the parN row is pure speedup.
		{"parallel_sort_1m_par1", parBench(1, benchParSort)},
		{parName("parallel_sort_1m", ncpu), parBench(ncpu, benchParSort)},
		// Top-k over the same 1M rows at NumCPU: every morsel keeps its 100
		// best rows by key image in a bounded heap, and only the final 100
		// rows are projected.
		{"topk_1m_limit100", parBench(ncpu, benchTopK)},
		// Result-cache pair: the same federated aggregate re-issued against
		// a 4-worker federation with the master's result cache off (every
		// repeat replans and re-executes the merge) and on (every repeat is
		// a version-validated cache hit). The cached row should come out an
		// order of magnitude under the cold row.
		{"repeat_query_cold", cacheBench(0, benchRepeatQuery)},
		{"repeat_query_cached", cacheBench(64<<20, benchRepeatQuery)},
	} {
		if bench.name == "" {
			continue // NumCPU==1 collapses a parallel pair into one case
		}
		fmt.Printf("bench %-36s ", bench.name)
		probePeak, probeSpill = 0, 0
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "bench %s produced no iterations (failed)\n", bench.name)
			os.Exit(1)
		}
		fmt.Printf("%12d ns/op %10d B/op %8d allocs/op", r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
		if probePeak > 0 {
			fmt.Printf(" %10d peak", probePeak)
		}
		if probeSpill > 0 {
			fmt.Printf(" %10d spilled", probeSpill)
		}
		fmt.Println()
		report.Results = append(report.Results, benchResult{
			Name:         bench.name,
			Iterations:   r.N,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			MemPeakBytes: probePeak,
			SpillBytes:   probeSpill,
		})
	}
	measureShipping(&report)
	measureCaching(&report)
	if benchOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		fatalIf(err)
		buf = append(buf, '\n')
		fatalIf(os.WriteFile(benchOut, buf, 0o644))
		fmt.Printf("\nwrote %s (%d benchmarks)\n", benchOut, len(report.Results))
	}
	if comparePath != "" {
		if regressed := comparePerf(report, comparePath, threshold); regressed > 0 {
			fmt.Fprintf(os.Stderr, "%d benchmark(s) regressed more than %.0f%%\n", regressed, threshold)
			os.Exit(1)
		}
	}
}

// measureShipping runs the same federated workload through the materialize
// path twice — once with the full union forced across the wire (SELECT *
// under ORDER BY, which blocks the LIMIT cap) and once with projection,
// filter, and LIMIT pushed to the parts — and records the wire volume of
// each, so BENCH_engine.json shows the rows-shipped reduction the planner
// buys.
func measureShipping(report *benchReport) {
	mt := &engine.MergeTable{TableName: "data"}
	for i := 0; i < 4; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 2000, Seed: int64(i)})
		fatalIf(err)
		db := engine.NewDB()
		db.RegisterTable("data", tab)
		mt.Parts = append(mt.Parts, &engine.LocalPart{Name: fmt.Sprintf("w%d", i), DB: db})
	}
	master := engine.NewDB()
	master.RegisterMerge("data", mt)

	fmt.Println()
	for _, c := range []struct {
		name, sql string
	}{
		{"materialize_select_star", `SELECT * FROM data ORDER BY ab42 LIMIT 5`},
		{"materialize_pushdown", `SELECT ab42 FROM data WHERE ab42 > 10 LIMIT 100`},
	} {
		qs, merge, err := queryMerge(master, c.sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shipping workload %s: %v\n", c.name, err)
			os.Exit(1)
		}
		_, partSQL, _ := strings.Cut(merge.Children[0].Detail, ": ")
		fmt.Printf("ship  %-36s %12d rows %10d bytes\n", c.name, qs.RowsShipped, qs.BytesShipped)
		report.Shipping = append(report.Shipping, shipResult{
			Name:         c.name,
			RowsShipped:  qs.RowsShipped,
			BytesShipped: qs.BytesShipped,
			PartSQL:      partSQL,
		})
	}
}

// measureCaching replays the dashboard query mix against a cached 4-worker
// federation — every statement in the mix, 25 rounds — and records the
// plan-cache and result-cache hit rates, so BENCH_engine.json shows what a
// steady-state dashboard gets from each tier. A private plan cache keeps
// the rates isolated from the rest of the suite (and from the process-wide
// default cache the other benchmarks warm).
func measureCaching(report *benchReport) {
	pc := engine.NewPlanCache(256)
	var clients []federation.WorkerClient
	for i := 0; i < 4; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 2000, Seed: int64(i)})
		fatalIf(err)
		db := engine.NewDB(engine.WithPlanCache(pc))
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", i), db))
	}
	master, err := federation.NewMaster(clients, nil, federation.Security{},
		federation.WithResultCacheBytes(32<<20),
		federation.WithEngineOptions(engine.WithPlanCache(pc)))
	fatalIf(err)
	defer master.Close()

	mix := dashboardMix()
	const rounds = 25
	for r := 0; r < rounds; r++ {
		for _, sql := range mix {
			if _, err := master.MergeQuery([]string{"edsd"}, sql); err != nil {
				fmt.Fprintf(os.Stderr, "caching workload %q: %v\n", sql, err)
				os.Exit(1)
			}
		}
	}
	rate := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	ps, rs := pc.Stats(), master.ResultCacheStats()
	c := cacheResult{
		Name:          "dashboard_replay_mix",
		Requests:      rounds * len(mix),
		PlanHitRate:   rate(ps.Hits, ps.Misses),
		ResultHitRate: rate(rs.Hits, rs.Misses),
	}
	fmt.Printf("\ncache %-36s %12d requests   plan_hit_rate=%.1f%%  result_hit_rate=%.1f%%\n",
		c.Name, c.Requests, 100*c.PlanHitRate, 100*c.ResultHitRate)
	report.Caching = append(report.Caching, c)
}

// dashboardMix is the six-statement repeat traffic of a pathology page
// (EXPERIMENTS.md E18): what every scientist opening the dashboard fires at
// the same federation.
func dashboardMix() []string {
	return []string{
		"SELECT count(*) AS n FROM data",
		"SELECT avg(ab42) AS m FROM data",
		"SELECT alzheimerbroadcategory, count(*) AS n FROM data GROUP BY alzheimerbroadcategory",
		"SELECT gender, avg(minimentalstate) AS m FROM data GROUP BY gender",
		"SELECT min(p_tau) AS lo, max(p_tau) AS hi FROM data",
		"SELECT alzheimerbroadcategory, avg(lefthippocampus) AS m FROM data WHERE subjectageyears > 65 GROUP BY alzheimerbroadcategory",
	}
}

// comparePerf diffs the fresh report against the baseline JSON at path,
// printing ns/op and allocs/op deltas per benchmark, and returns how many
// benchmarks regressed more than threshold percent. Alloc regressions only
// count against baselines of at least 128 allocs/op — below that a couple
// of incidental allocations would swamp the percentage.
func comparePerf(report benchReport, path string, threshold float64) int {
	buf, err := os.ReadFile(path)
	fatalIf(err)
	var base benchReport
	fatalIf(json.Unmarshal(buf, &base))
	baseBy := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	pct := func(now, then float64) float64 {
		if then == 0 {
			return 0
		}
		return (now - then) / then * 100
	}
	fmt.Printf("\ncompare vs %s (cpus: baseline %d, now %d; threshold %.0f%%)\n", path, base.CPUs, report.CPUs, threshold)
	regressed := 0
	for _, r := range report.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Printf("  %-36s (new benchmark, no baseline)\n", r.Name)
			continue
		}
		dNs := pct(r.NsPerOp, b.NsPerOp)
		dAllocs := pct(float64(r.AllocsPerOp), float64(b.AllocsPerOp))
		mark := ""
		if dNs > threshold || (dAllocs > threshold && b.AllocsPerOp >= 128) {
			mark = "  << REGRESSION"
			regressed++
		}
		// mem_peak_bytes deltas are informational only: peaks move with
		// deliberate budget/spill choices, so they never fail the compare.
		peak := ""
		if r.MemPeakBytes > 0 || b.MemPeakBytes > 0 {
			peak = fmt.Sprintf("   mem_peak %11d -> %11d (%+6.1f%%)",
				b.MemPeakBytes, r.MemPeakBytes, pct(float64(r.MemPeakBytes), float64(b.MemPeakBytes)))
		}
		fmt.Printf("  %-36s ns/op %12.0f -> %12.0f (%+6.1f%%)   allocs/op %9d -> %9d (%+6.1f%%)%s%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, dNs, b.AllocsPerOp, r.AllocsPerOp, dAllocs, peak, mark)
		delete(baseBy, r.Name)
	}
	for name := range baseBy {
		fmt.Printf("  %-36s (in baseline but not in this run)\n", name)
	}
	// Cache hit rates are informational only: they move with deliberate
	// cache sizing or mix changes, so deltas never fail the compare.
	cacheBy := make(map[string]cacheResult, len(base.Caching))
	for _, c := range base.Caching {
		cacheBy[c.Name] = c
	}
	for _, c := range report.Caching {
		b, ok := cacheBy[c.Name]
		if !ok {
			fmt.Printf("  %-36s plan_hit_rate=%.1f%% result_hit_rate=%.1f%% (no baseline)\n",
				c.Name, 100*c.PlanHitRate, 100*c.ResultHitRate)
			continue
		}
		fmt.Printf("  %-36s plan_hit_rate %5.1f%% -> %5.1f%% (%+.1fpt)   result_hit_rate %5.1f%% -> %5.1f%% (%+.1fpt)\n",
			c.Name, 100*b.PlanHitRate, 100*c.PlanHitRate, 100*(c.PlanHitRate-b.PlanHitRate),
			100*b.ResultHitRate, 100*c.ResultHitRate, 100*(c.ResultHitRate-b.ResultHitRate))
	}
	return regressed
}

// probePeak/probeSpill receive the engine-accounted peak bytes and spill
// volume of the most recent instrumented benchmark iteration (benchLoop's
// first), so runPerfSuite can attach them to the result row. The suite is
// strictly sequential, so plain package vars are fine.
var probePeak, probeSpill int64

// benchLoop runs sql b.N times against db. The first iteration runs
// instrumented (QueryWithStats) to capture mem_peak_bytes/spill_bytes into
// the suite probes; the remaining iterations take the plain path so the
// timing stays representative.
func benchLoop(b *testing.B, db *engine.DB, sql string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			_, qs, err := db.QueryWithStats(sql)
			if err != nil {
				b.Fatal(err)
			}
			probePeak, probeSpill = qs.MemPeakBytes, qs.SpillBytes
			continue
		}
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// parBench adapts a parallelism-parameterized benchmark into a plain one.
func parBench(par int, fn func(*testing.B, int)) func(*testing.B) {
	return func(b *testing.B) { fn(b, par) }
}

// spillBench adapts a budget-parameterized benchmark into a plain one.
func spillBench(budget int64, fn func(*testing.B, int64)) func(*testing.B) {
	return func(b *testing.B) { fn(b, budget) }
}

// benchJoinAggSpill: a 1M x 1M equi-join feeding a 16-group aggregate.
// With budget 0 it runs fully in memory; with a positive budget plus a
// spill dir the hash join indexes the build partitions that fit in each
// of several passes and streams its merged output into the aggregate —
// same bits, small peak.
func benchJoinAggSpill(b *testing.B, budget int64) {
	l := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "x", Type: engine.Float64},
		{Name: "y", Type: engine.Float64},
	})
	r := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "k", Type: engine.String},
	})
	rng := stats.NewRNG(7)
	for i := 0; i < 1_000_000; i++ {
		if err := l.AppendRow(int64(i), rng.Float64()*30, rng.Float64()); err != nil {
			b.Fatal(err)
		}
		if err := r.AppendRow(int64(i), fmt.Sprintf("site-%d", i%16)); err != nil {
			b.Fatal(err)
		}
	}
	var opts []engine.Option
	if budget > 0 {
		dir, err := os.MkdirTemp("", "mipbench-spill-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		opts = append(opts, engine.WithQueryMemLimit(budget), engine.WithSpillDir(dir))
	}
	db := engine.NewDB(opts...)
	db.RegisterTable("l", l)
	db.RegisterTable("r", r)
	b.ResetTimer()
	benchLoop(b, db, `SELECT r.k, sum(l.x) AS s, count(*) AS n FROM l JOIN r ON l.id = r.id GROUP BY r.k`)
}

// acctBench adapts an accounting-parameterized benchmark into a plain one.
func acctBench(on bool, fn func(*testing.B, bool)) func(*testing.B) {
	return func(b *testing.B) { fn(b, on) }
}

// cacheBench adapts a result-cache-budget-parameterized benchmark.
func cacheBench(budget int64, fn func(*testing.B, int64)) func(*testing.B) {
	return func(b *testing.B) { fn(b, budget) }
}

// benchFederation builds a 4-worker in-process federation over synthetic
// EDSD shards, with the master's result cache sized by cacheBytes (0 off).
func benchFederation(b *testing.B, cacheBytes int64) *federation.Master {
	b.Helper()
	var clients []federation.WorkerClient
	for i := 0; i < 4; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 2000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", i), db))
	}
	var opts []federation.MasterOption
	if cacheBytes > 0 {
		opts = append(opts, federation.WithResultCacheBytes(cacheBytes))
	}
	master, err := federation.NewMaster(clients, nil, federation.Security{}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return master
}

// benchRepeatQuery re-issues one federated grouped aggregate. With a result
// cache every iteration after the warm-up is a hit served from the master's
// memory; without one every iteration walks the full merge path.
func benchRepeatQuery(b *testing.B, cacheBytes int64) {
	master := benchFederation(b, cacheBytes)
	defer master.Close()
	datasets := []string{"edsd"}
	sql := `SELECT alzheimerbroadcategory AS dx, avg(ab42) AS m, count(*) AS n FROM data GROUP BY alzheimerbroadcategory`
	if _, err := master.MergeQuery(datasets, sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.MergeQuery(datasets, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParSort: a full 1M-row ORDER BY (no LIMIT, so nothing short-circuits
// into top-k): a radix sort of the two keys' images, key by key.
func benchParSort(b *testing.B, par int) {
	benchLoop(b, benchSortDB(b, par), `SELECT site, x FROM t ORDER BY x, site`)
}

// benchTopK: ORDER BY … LIMIT 100 over the same 1M rows.
func benchTopK(b *testing.B, par int) {
	benchLoop(b, benchSortDB(b, par), `SELECT site, x FROM t ORDER BY x DESC LIMIT 100`)
}

// benchSortDB is the sort benchmarks' table: 1M random floats beside a
// 16-value string column.
func benchSortDB(b *testing.B, par int) *engine.DB {
	tab := engine.NewTable(engine.Schema{
		{Name: "x", Type: engine.Float64},
		{Name: "site", Type: engine.String},
	})
	rng := stats.NewRNG(8)
	for i := 0; i < 1_000_000; i++ {
		if err := tab.AppendRow(rng.Float64()*1000, fmt.Sprintf("site-%d", i%16)); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB(engine.WithParallelism(par))
	db.RegisterTable("t", tab)
	b.ResetTimer()
	return db
}

// parName names the NumCPU half of a parallel pair; on a 1-CPU machine it
// would duplicate the par1 case, so the empty name drops it from the suite.
func parName(base string, ncpu int) string {
	if ncpu <= 1 {
		return ""
	}
	return fmt.Sprintf("%s_par%d", base, ncpu)
}

// benchParScanFilter: 1M-row filter + global aggregate, morsel-parallel.
func benchParScanFilter(b *testing.B, par int) {
	tab := engine.NewTable(engine.Schema{{Name: "x", Type: engine.Float64}})
	rng := stats.NewRNG(3)
	for i := 0; i < 1_000_000; i++ {
		if err := tab.AppendRow(rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB(engine.WithParallelism(par))
	db.RegisterTable("t", tab)
	b.ResetTimer()
	benchLoop(b, db, `SELECT avg(x) AS m, count(*) AS n FROM t WHERE x > 0.2`)
}

// benchParGroupAggregate: 500k rows, 8 groups, partitioned hash aggregation.
func benchParGroupAggregate(b *testing.B, par int) {
	benchGroupAggregate500k(b, engine.WithParallelism(par))
}

// benchAcctGroupAggregate: the grouping workload with accounting toggled.
func benchAcctGroupAggregate(b *testing.B, on bool) {
	benchGroupAggregate500k(b, engine.WithAccounting(on))
}

func benchGroupAggregate500k(b *testing.B, opts ...engine.Option) {
	tab := engine.NewTable(engine.Schema{
		{Name: "site", Type: engine.String},
		{Name: "x", Type: engine.Float64},
	})
	rng := stats.NewRNG(4)
	for i := 0; i < 500_000; i++ {
		if err := tab.AppendRow(fmt.Sprintf("site-%d", i%8), rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB(opts...)
	db.RegisterTable("t", tab)
	b.ResetTimer()
	benchLoop(b, db, `SELECT site, avg(x) AS m, stddev(x) AS sd, count(*) AS n FROM t GROUP BY site`)
}

// benchParHashJoin: 200k x 200k equi-join with parallel probe/materialize.
func benchParHashJoin(b *testing.B, par int) {
	benchHashJoin200k(b, engine.WithParallelism(par))
}

// benchAcctHashJoin: the join workload with accounting toggled.
func benchAcctHashJoin(b *testing.B, on bool) {
	benchHashJoin200k(b, engine.WithAccounting(on))
}

func benchHashJoin200k(b *testing.B, opts ...engine.Option) {
	patients := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "age", Type: engine.Float64},
	})
	scores := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "mmse", Type: engine.Float64},
	})
	rng := stats.NewRNG(5)
	for i := 0; i < 200_000; i++ {
		if err := patients.AppendRow(int64(i), 60+rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
		if err := scores.AppendRow(int64(i), rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB(opts...)
	db.RegisterTable("patients", patients)
	db.RegisterTable("scores", scores)
	b.ResetTimer()
	benchLoop(b, db, `SELECT avg(s.mmse) AS m, count(*) AS n FROM patients p JOIN scores s ON p.id = s.id WHERE p.age > 70`)
}

// benchParGroupAggHiCard: 500k rows spread over ~100k distinct int64 keys,
// so per-morsel and combine tables resize repeatedly while group payload
// arrays grow to 100k entries.
func benchParGroupAggHiCard(b *testing.B, par int) {
	tab := engine.NewTable(engine.Schema{
		{Name: "k", Type: engine.Int64},
		{Name: "x", Type: engine.Float64},
	})
	rng := stats.NewRNG(6)
	for i := 0; i < 500_000; i++ {
		if err := tab.AppendRow(int64(i)%100_003, rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB(engine.WithParallelism(par))
	db.RegisterTable("t", tab)
	b.ResetTimer()
	benchLoop(b, db, `SELECT k, sum(x) AS s, count(*) AS n FROM t GROUP BY k`)
}

func benchFloatTable(b *testing.B, rows int) *engine.DB {
	b.Helper()
	tab := engine.NewTable(engine.Schema{{Name: "x", Type: engine.Float64}})
	rng := stats.NewRNG(1)
	for i := 0; i < rows; i++ {
		if err := tab.AppendRow(rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.RegisterTable("t", tab)
	return db
}

func benchScanFilter(b *testing.B) {
	db := benchFloatTable(b, 100000)
	b.ResetTimer()
	benchLoop(b, db, `SELECT avg(x) AS m, count(*) AS n FROM t WHERE x > 0.2`)
}

func benchGroupAggregate(b *testing.B) {
	tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 5000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewDB()
	db.RegisterTable("data", tab)
	b.ResetTimer()
	benchLoop(b, db, `SELECT alzheimerbroadcategory AS dx, avg(lefthippocampus) AS m, count(*) AS n FROM data GROUP BY alzheimerbroadcategory`)
}

func benchJoinDB(b *testing.B) *engine.DB {
	b.Helper()
	patients := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "age", Type: engine.Float64},
	})
	scores := engine.NewTable(engine.Schema{
		{Name: "id", Type: engine.Int64},
		{Name: "mmse", Type: engine.Float64},
	})
	rng := stats.NewRNG(2)
	for i := 0; i < 20000; i++ {
		if err := patients.AppendRow(int64(i), 60+rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
		if err := scores.AppendRow(int64(i), rng.Float64()*30); err != nil {
			b.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.RegisterTable("patients", patients)
	db.RegisterTable("scores", scores)
	return db
}

func benchAggregateOverJoin(b *testing.B) {
	db := benchJoinDB(b)
	b.ResetTimer()
	benchLoop(b, db, `SELECT avg(s.mmse) AS m, count(*) AS n FROM patients p JOIN scores s ON p.id = s.id WHERE p.age > 70`)
}

func benchMergeDB(b *testing.B) *engine.DB {
	b.Helper()
	mt := &engine.MergeTable{TableName: "data"}
	for i := 0; i < 4; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 2000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		db := engine.NewDB()
		db.RegisterTable("data", tab)
		mt.Parts = append(mt.Parts, &engine.LocalPart{Name: fmt.Sprintf("w%d", i), DB: db})
	}
	master := engine.NewDB()
	master.RegisterMerge("data", mt)
	return master
}

func benchMergePushdown(b *testing.B) {
	master := benchMergeDB(b)
	b.ResetTimer()
	benchLoop(b, master, `SELECT alzheimerbroadcategory AS dx, avg(ab42) AS m FROM data GROUP BY alzheimerbroadcategory`)
}

// The cost of running the same federated aggregate with full operator
// profiling and plan rendering (EXPLAIN ANALYZE) versus benchMergePushdown
// bounds the observability overhead.
func benchExplainAnalyze(b *testing.B) {
	master := benchMergeDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Query(`EXPLAIN ANALYZE SELECT alzheimerbroadcategory AS dx, avg(ab42) AS m FROM data GROUP BY alzheimerbroadcategory`); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFederatedDescriptive(b *testing.B) {
	var workers []mip.WorkerConfig
	for i := 0; i < 3; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 500, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		workers = append(workers, mip.WorkerConfig{ID: fmt.Sprintf("w%d", i), Data: tab})
	}
	p, err := mip.New(mip.Config{Workers: workers, Security: mip.SecurityOff, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	req := mip.Request{Datasets: []string{"edsd"}, Y: []string{"p_tau", "lefthippocampus"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunExperiment("descriptive_stats", req); err != nil {
			b.Fatal(err)
		}
	}
}
