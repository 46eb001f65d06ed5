package main

import (
	"fmt"
	"strconv"

	"mip/internal/algorithms"
	"mip/internal/api"
)

// opKind says which public entry point of the system an operation drives.
type opKind int

const (
	kindExperiment opKind = iota // POST /experiments → wait → GET /experiments/{uuid}
	kindMerge                    // Master.MergeQueryDegradedAs (merge-table path)
	kindWrite                    // INSERT/DELETE straight into one hospital's engine
	kindEngine                   // engine.DB.Query on the hospital-local analytics database
)

// op is one operation of a workload's fixed, seeded sequence.
type op struct {
	kind  opKind
	class string // statement or algorithm class; names the per-class metrics
	exp   api.ExperimentRequest
	sql   string
	// ref is the SQL whose result on the pooled reference database must equal
	// this op's result ("" = sql itself). An ORDER BY without LIMIT is checked
	// against the unordered statement plus a sortedness scan of orderBy.
	ref     string
	orderBy string
	desc    bool
	// site is the hospital a write goes to, or for engine ops the database
	// handle (0 = in-memory, 1 = the 8 MB spilling handle).
	site int
}

// workload is a named, permanent traffic mix. ops must be a pure function of
// (seed, client, cycle): the same seed replays the same sequence, another seed
// changes the constants but not the op counts.
type workload struct {
	name    string
	clients int
	topo    topoSpec
	// engineRows sizes the single local analytics table of engine_sql
	// (which has no federation at all).
	engineRows int
	tol        float64
	ops        func(seed int64, client, cycle int) []op
}

// benchTenant is the tenant the load generator's merge statements run as
// (worker-side part queries stay untagged).
const benchTenant = "bench"

var workloads = []*workload{
	{
		name: "dash_plain", clients: 2, tol: tolPlain,
		topo: topoSpec{hospitals: 4, rows: 500, rest: true},
		ops:  func(seed int64, client, cycle int) []op { return shuffled(dashOps, seed, client, cycle) },
	},
	{
		name: "secure_ft", clients: 2, tol: tolSecure,
		topo: topoSpec{hospitals: 4, rows: 500, rest: true, secure: true},
		ops:  func(seed int64, client, cycle int) []op { return shuffled(secureOps, seed, client, cycle) },
	},
	{
		name: "merge_ship", clients: 2, tol: tolPlain,
		topo: topoSpec{hospitals: 4, rows: 10000, rawQuery: true},
		ops: func(seed int64, client, cycle int) []op {
			return shuffled(mergeOps(seed, client, cycle), seed, client, cycle)
		},
	},
	{
		name: "replay_rw", clients: 2, tol: tolPlain,
		topo: topoSpec{hospitals: 4, rows: 5000, rawQuery: true, cacheMB: 64},
		ops:  replayOps,
	},
	{
		name: "engine_sql", clients: 1, tol: tolPlain,
		engineRows: 100000,
		ops:        engineOps,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var numericVars = []string{
	"subjectageyears", "lefthippocampus", "righthippocampus",
	"leftententorhinalarea", "rightententorhinalarea",
	"leftlateralventricle", "rightlateralventricle",
	"ab42", "p_tau", "minimentalstate",
}

var dxClasses = []any{"CN", "MCI", "AD"}

func experiment(alg string, y, x []string, filter string, params map[string]any) op {
	return op{kind: kindExperiment, class: alg, exp: api.ExperimentRequest{
		Name: alg, Algorithm: alg,
		Request: algorithms.Request{
			Datasets: []string{dataset}, Y: y, X: x, Filter: filter, Parameters: params,
		},
	}}
}

// dashOps is the dashboard cycle. Iterative algorithms run a fixed number of
// rounds (tolerance 0, explicit cap) so that an op's work does not depend on
// where the seed's data happens to converge.
var dashOps = []op{
	experiment("descriptive_stats", []string{"lefthippocampus", "ab42", "minimentalstate"}, nil, "", nil),
	experiment("linear_regression", []string{"minimentalstate"},
		[]string{"lefthippocampus", "subjectageyears", "ab42"}, "", nil),
	experiment("pearson_correlation", []string{"minimentalstate"},
		[]string{"lefthippocampus", "p_tau", "ab42"}, "", nil),
	experiment("ttest_independent", []string{"ab42"}, []string{"gender"}, "",
		map[string]any{"groups": []any{"F", "M"}}),
	// anova_oneway is not in the cycle: over REST it always ends in "json:
	// unsupported value: NaN" (its Residuals row carries NaN F and p).
	experiment("ttest_paired", []string{"lefthippocampus", "righthippocampus"}, nil, "", nil),
	experiment("pca", []string{"lefthippocampus", "ab42", "p_tau", "minimentalstate"}, nil, "", nil),
	experiment("naive_bayes", []string{"alzheimerbroadcategory"},
		[]string{"lefthippocampus", "p_tau", "ab42"}, "",
		map[string]any{"classes": dxClasses}),
	experiment("logistic_regression", []string{"alzheimerbroadcategory"},
		[]string{"lefthippocampus", "p_tau"}, "alzheimerbroadcategory IN ('AD','CN')",
		map[string]any{"pos_level": "AD", "max_iter": 6, "tol": 0}),
	experiment("kmeans", []string{"ab42", "p_tau", "leftententorhinalarea"}, nil, "",
		map[string]any{"k": 3, "iterations_max_number": 8, "e": 0}),
}

// secureOps are the widest secure aggregates: histogram sums plus min/max,
// which is where full-threshold SMPC spends its comparisons.
var secureOps = []op{
	experiment("cart", []string{"alzheimerbroadcategory"}, numericVars[1:7], "",
		map[string]any{"classes": dxClasses, "bins": 256, "max_depth": 2}),
	experiment("descriptive_stats", numericVars, nil, "", nil),
	experiment("kmeans", numericVars[1:7], nil, "",
		map[string]any{"k": 3, "iterations_max_number": 4, "e": 0}),
}

// jitter is a deterministic value in [0, 1) for one constant slot of one op,
// so that no two ops of a run are textually equal.
func jitter(seed int64, client, cycle, slot int) float64 {
	h := mix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(client)<<40 ^ uint64(cycle)<<8 ^ uint64(slot))
	return float64(h>>11) / (1 << 53)
}

func lit(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// shuffled returns a cycle's ops in an order drawn from (seed, client, cycle).
// Two closed-loop clients replaying one fixed order fall into step, and which
// classes then meet at the shared locks and cores — the same pairs for a whole
// run, other pairs in the next run — decides the classes' latencies. A fresh
// order every cycle lets a run average over the meetings.
func shuffled(ops []op, seed int64, client, cycle int) []op {
	out := append([]op(nil), ops...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(jitter(seed, client, cycle, 9000+i) * float64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// mergeOps is one exploration cycle over the merge table. The age predicate
// is always true (ages are clamped at 40) and the ab42 threshold moves by
// less than one unit around the cohort's upper quartile, so the constants
// rotate without changing how many rows an op ships.
func mergeOps(seed int64, client, cycle int) []op {
	age := func(slot int) string { return lit(39 + jitter(seed, client, cycle, slot)) }
	ab42 := lit(1010 + jitter(seed, client, cycle, 5))
	proj := "SELECT row_id, subjectageyears, ab42, minimentalstate FROM data WHERE subjectageyears >= " + age(0)
	return []op{
		{kind: kindMerge, class: "order4", sql: proj + " ORDER BY ab42 DESC", ref: proj, orderBy: "ab42", desc: true},
		{kind: kindMerge, class: "select25", sql: "SELECT * FROM data WHERE ab42 > " + ab42},
		{kind: kindMerge, class: "proj25", sql: "SELECT row_id, lefthippocampus, p_tau FROM data" +
			" WHERE subjectageyears >= " + age(1) + " AND ab42 > " + ab42},
		{kind: kindMerge, class: "agg_dx", sql: "SELECT alzheimerbroadcategory, count(*) AS n, avg(ab42) AS m FROM data" +
			" WHERE subjectageyears >= " + age(2) + " GROUP BY alzheimerbroadcategory"},
		{kind: kindMerge, class: "agg_gender", sql: "SELECT gender, avg(minimentalstate) AS m, min(p_tau) AS lo, max(p_tau) AS hi FROM data" +
			" WHERE subjectageyears >= " + age(3) + " GROUP BY gender"},
	}
}

// dashboardMix is the six-statement repeat traffic of a pathology page (the
// E18 mix of EXPERIMENTS.md, re-declared here).
var dashboardMix = []string{
	"SELECT count(*) AS n FROM data",
	"SELECT avg(ab42) AS m FROM data",
	"SELECT alzheimerbroadcategory, count(*) AS n FROM data GROUP BY alzheimerbroadcategory",
	"SELECT gender, avg(minimentalstate) AS m FROM data GROUP BY gender",
	"SELECT min(p_tau) AS lo, max(p_tau) AS hi FROM data",
	"SELECT alzheimerbroadcategory, avg(lefthippocampus) AS m FROM data WHERE subjectageyears > 65 GROUP BY alzheimerbroadcategory",
}

const (
	replayCycle  = 100 // ops per cycle
	replayWrites = 3   // of which writes
	// Benchmark-inserted rows get ids from writeBase up, one siteSpan-wide
	// range per hospital, so a hospital's paired DELETE names exactly its own
	// inserted rows (on the pooled reference too) and tables stay bounded.
	writeBase      = 1 << 40
	siteSpan       = 1 << 30
	clientSpan     = 1 << 24
	deleteEveryNth = 50 // every 50th write of a client is the DELETE
)

// replayOps is 97 % reads from the dashboard mix and 3 % single-row writes
// into a seeded hospital.
func replayOps(seed int64, client, cycle int) []op {
	ops := make([]op, replayCycle)
	writeAt := map[int]bool{}
	for slot := 0; len(writeAt) < replayWrites; slot++ {
		writeAt[int(jitter(seed, client, cycle, 1000+slot)*replayCycle)] = true
	}
	nth := cycle * replayWrites
	for i := range ops {
		if !writeAt[i] {
			q := int(jitter(seed, client, cycle, i) * float64(len(dashboardMix)))
			ops[i] = op{kind: kindMerge, class: "read", sql: dashboardMix[q]}
			continue
		}
		site := int(jitter(seed, client, cycle, 2000+i) * 4)
		lo := writeBase + site*siteSpan
		nth++
		if nth%deleteEveryNth == 0 {
			ops[i] = op{kind: kindWrite, class: "write", site: site, sql: fmt.Sprintf(
				"DELETE FROM data WHERE row_id >= %d AND row_id < %d", lo, lo+siteSpan)}
			continue
		}
		ops[i] = op{kind: kindWrite, class: "write", site: site, sql: fmt.Sprintf(
			"INSERT INTO data (row_id, dataset, subjectageyears, gender, alzheimerbroadcategory, ab42, p_tau, minimentalstate, lefthippocampus) "+
				"VALUES (%d, '%s', %s, 'F', 'MCI', %s, 30.5, 26, 2.9)",
			lo+client*clientSpan+nth, dataset,
			lit(66+10*jitter(seed, client, cycle, 3000+i)), lit(700+200*jitter(seed, client, cycle, 4000+i)))}
	}
	return ops
}

// engineOps is the hospital-local analytics cycle: every operator family
// once, and the join+aggregate a second time on the spilling handle. The
// constants depend on the seed only: a hospital's own reports repeat, and
// every repeat can then be checked against one serial reference execution.
func engineOps(seed int64, _, _ int) []op {
	j := func(slot int) float64 { return jitter(seed, 0, 0, slot) }
	all := func(slot int) string { return lit(39 + j(slot)) } // every age is >= 40
	joinAgg := "SELECT d.alzheimerbroadcategory, count(*) AS n, avg(v.score) AS m FROM data d JOIN visits v ON d.row_id = v.row_id" +
		" WHERE v.score >= " + lit(j(2)-1) + " GROUP BY d.alzheimerbroadcategory"
	return []op{
		{kind: kindEngine, class: "scan_filter", sql: "SELECT count(*) AS n, avg(ab42) AS m, max(p_tau) AS hi FROM data" +
			" WHERE subjectageyears > " + lit(64+2*j(0)) + " AND minimentalstate < " + lit(27+j(1))},
		{kind: kindEngine, class: "group_lo", sql: "SELECT gender, alzheimerbroadcategory, count(*) AS n, avg(lefthippocampus) AS m FROM data" +
			" WHERE subjectageyears >= " + all(3) + " GROUP BY gender, alzheimerbroadcategory"},
		{kind: kindEngine, class: "group_hi", sql: "SELECT bucket, count(*) AS n, avg(score) AS m FROM visits" +
			" WHERE score >= " + lit(j(4)-1) + " GROUP BY bucket"},
		{kind: kindEngine, class: "join_agg", sql: joinAgg},
		{kind: kindEngine, class: "sort_full", sql: "SELECT row_id, ab42, p_tau FROM data WHERE subjectageyears >= " +
			all(5) + " ORDER BY ab42 DESC", orderBy: "ab42", desc: true},
		{kind: kindEngine, class: "topk", sql: "SELECT row_id, ab42 FROM data WHERE subjectageyears >= " +
			all(6) + " ORDER BY ab42 DESC LIMIT 100"},
		{kind: kindEngine, class: "join_agg_spill", sql: joinAgg, site: 1},
	}
}
