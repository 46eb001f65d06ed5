// Command mipctl is the CLI client for a running mipd: it lists
// algorithms, datasets and variables, submits experiments and polls them
// to completion — the scientist's workflow from the paper's Figures 4-5,
// without the browser.
//
// Usage:
//
//	mipctl [-server http://localhost:8080] algorithms
//	mipctl datasets
//	mipctl variables [-pathology dementia] [-search hippocampus]
//	mipctl experiments
//	mipctl run -algorithm linear_regression -datasets edsd \
//	       -y minimentalstate -x lefthippocampus,subjectageyears \
//	       [-param k=3] [-param pos_level=AD] [-filter "age > 60"]
//	mipctl health
//	mipctl workers            # per-worker circuit state and datasets
//	mipctl trace exp-000001   # render the experiment's span tree
//	mipctl explain [-analyze] [-datasets edsd] "SELECT avg(age) FROM data"
//	mipctl slow               # the server's slow-query log
//	mipctl top [-interval 1s] [-iterations 0]   # live active-query view
//	mipctl kill 42            # cancel an active query by id
//	mipctl tenants            # per-tenant usage accounts and SLO windows
//	mipctl audit [-tenant alice] [-dataset edsd] [-limit 50]   # audit trail
//	mipctl cache              # plan-cache and result-cache hit/miss stats
//	mipctl cache flush        # drop both cache tiers (audited)
//
// run and explain accept -tenant to attribute the work to a usage account
// (shown by mipctl tenants and joinable against mipctl audit).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mip/internal/algorithms"
	"mip/internal/api"
	"mip/internal/obs"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	server := flag.String("server", "http://localhost:8080", "mipd base URL")
	algorithm := flag.String("algorithm", "", "algorithm name (run)")
	datasets := flag.String("datasets", "", "comma-separated datasets (run)")
	yvars := flag.String("y", "", "comma-separated Y variables (run)")
	xvars := flag.String("x", "", "comma-separated X variables (run)")
	filter := flag.String("filter", "", "SQL filter (run)")
	pathology := flag.String("pathology", "dementia", "pathology (variables)")
	search := flag.String("search", "", "variable search query (variables)")
	name := flag.String("name", "", "experiment name (run)")
	analyze := flag.Bool("analyze", false, "execute the query and report measured stats (explain)")
	interval := flag.Duration("interval", time.Second, "refresh interval (top)")
	iterations := flag.Int("iterations", 0, "refresh count before exiting, 0 = forever (top)")
	tenant := flag.String("tenant", "", "tenant account to attribute or filter by (run, explain, audit)")
	dataset := flag.String("dataset", "", "dataset filter (audit)")
	limit := flag.Int("limit", 0, "max records, keeping the newest (audit)")
	var params multiFlag
	flag.Var(&params, "param", "algorithm parameter key=value (repeatable)")
	flag.Parse()

	cmd := flag.Arg(0)
	// The flag package stops at the first positional argument, so flags
	// placed after the subcommand (mipctl run -algorithm …) would be lost;
	// re-parse the remainder. subArgs holds the subcommand's positionals.
	var subArgs []string
	if rest := flag.Args(); len(rest) > 1 {
		if err := flag.CommandLine.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
		subArgs = flag.Args()
	}
	switch cmd {
	case "algorithms":
		get(*server+"/algorithms", prettyPrint)
	case "datasets":
		get(*server+"/datasets", prettyPrint)
	case "variables":
		url := fmt.Sprintf("%s/pathologies/%s/variables", *server, *pathology)
		if *search != "" {
			url += "?search=" + *search
		}
		get(url, prettyPrint)
	case "experiments":
		get(*server+"/experiments", prettyPrint)
	case "run":
		runExperiment(*server, *name, *tenant, *algorithm, *datasets, *yvars, *xvars, *filter, params)
	case "workflows":
		get(*server+"/workflows", prettyPrint)
	case "workflow":
		runWorkflow(*server, *name, subArgs)
	case "health":
		get(*server+"/healthz", printHealth)
	case "workers":
		get(*server+"/workers", printWorkers)
	case "trace":
		if len(subArgs) == 0 {
			log.Fatal("trace needs an experiment uuid")
		}
		get(*server+"/experiments/"+subArgs[0]+"/trace", printTrace)
	case "explain":
		if len(subArgs) == 0 {
			log.Fatal(`explain needs a SQL query (against the federated "data" view)`)
		}
		explainQuery(*server, strings.Join(subArgs, " "), *datasets, *tenant, *analyze)
	case "slow":
		get(*server+"/queries/slow", printSlow)
	case "top":
		topQueries(*server, *interval, *iterations)
	case "kill":
		if len(subArgs) == 0 {
			log.Fatal("kill needs a query id (see mipctl top)")
		}
		killQuery(*server, subArgs[0])
	case "tenants":
		get(*server+"/tenants", printTenants)
	case "audit":
		url := *server + "/audit"
		q := neturl.Values{}
		if *tenant != "" {
			q.Set("tenant", *tenant)
		}
		if *dataset != "" {
			q.Set("dataset", *dataset)
		}
		if *limit > 0 {
			q.Set("limit", strconv.Itoa(*limit))
		}
		if len(q) > 0 {
			url += "?" + q.Encode()
		}
		get(url, printAudit)
	case "cache":
		if len(subArgs) > 0 && subArgs[0] == "flush" {
			flushCache(*server, *tenant)
		} else {
			get(*server+"/cache", printCache)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: mipctl [flags] algorithms|datasets|variables|experiments|workflows|run|workflow|health|workers|trace|explain|slow|top|kill|tenants|audit|cache")
		os.Exit(2)
	}
}

// explainQuery asks the master to plan (or profile, with -analyze) a
// federated query over the workers' merge view and prints the plan tree.
func explainQuery(server, sql, datasets, tenant string, analyze bool) {
	req := map[string]any{"sql": sql, "analyze": analyze}
	if ds := splitList(datasets); len(ds) > 0 {
		req["datasets"] = ds
	}
	var doc api.ExplainResponse
	if err := json.Unmarshal(call(http.MethodPost, server+"/queries/explain", tenant, req, 200), &doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datasets: %s\n", strings.Join(doc.Datasets, ","))
	for _, line := range doc.Plan {
		fmt.Println(line)
	}
}

// printSlow renders GET /queries/slow: one header line per retained query
// followed by its captured plan.
func printSlow(body []byte) {
	var doc api.SlowQueriesResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	fmt.Printf("slow-query threshold: %.3fs, %d retained\n", doc.ThresholdSeconds, len(doc.Queries))
	for _, q := range doc.Queries {
		fmt.Printf("\n%s  %.3fs  rows %d->%d", q.Start.Format(time.RFC3339Nano), q.Seconds, q.RowsScanned, q.RowsOut)
		show := func(key string, val any, set bool) {
			if set {
				fmt.Printf("  %s=%v", key, val)
			}
		}
		show("mem_peak", formatBytes(q.MemPeakBytes), q.MemPeakBytes > 0)
		show("spill", formatBytes(q.SpillBytes), q.SpillBytes > 0)
		show("spill_parts", q.SpillPartitions, q.SpillPartitions > 0)
		show("shipped_rows", q.RowsShipped, q.RowsShipped > 0)
		show("shipped", formatBytes(q.BytesShipped), q.BytesShipped > 0)
		show("reason", q.Verdict, q.Verdict != "")
		show("cache", q.Cache, q.Cache != "")
		show("id", q.ID, q.ID != "")
		show("tenant", q.Tenant, q.Tenant != "")
		show("job", q.Job, q.Job != "")
		show("datasets", strings.Join(q.Datasets, ","), len(q.Datasets) > 0)
		show("workers", strings.Join(q.Workers, ","), len(q.Workers) > 0)
		show("dropped", strings.Join(q.Dropped, ","), len(q.Dropped) > 0)
		fmt.Printf("  sql=%s  %s\n", q.SQLDigest, q.SQL)
		if q.Error != "" {
			fmt.Printf("  ERROR: %s\n", q.Error)
		}
		for _, line := range q.Plan {
			fmt.Printf("  %s\n", line)
		}
	}
}

// topQueries polls GET /queries/active and renders a live, top-style view:
// one line per in-flight statement with age, rows, accounted memory and the
// operator it is currently inside. iterations 0 refreshes until interrupted.
func topQueries(server string, interval time.Duration, iterations int) {
	for i := 0; iterations == 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		get(server+"/queries/active", func(b []byte) { printTop(b, interval) })
	}
}

// printTop renders one refresh of GET /queries/active.
func printTop(body []byte, interval time.Duration) {
	var doc api.ActiveQueriesResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		log.Fatal(err)
	}
	fmt.Print("\033[H\033[2J") // clear screen, cursor home
	fmt.Printf("%s  %d active quer%s (refresh %s; kill with: mipctl kill <id>)\n",
		time.Now().Format("15:04:05"), len(doc.Queries), plural(len(doc.Queries), "y", "ies"), interval)
	fmt.Printf("%4s  %8s  %10s  %10s  %10s  %10s  %-24s  %s\n",
		"ID", "AGE", "ROWS", "LIVE", "PEAK", "SPILL", "OPERATOR", "SQL")
	for _, q := range doc.Queries {
		sql := q.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		// Who the statement runs for follows its text; Start is the AGE column.
		if tag := strings.TrimSpace(strings.Join(append([]string{q.Tenant, q.Job}, q.Datasets...), " ")); tag != "" {
			sql += "  [" + tag + "]"
		}
		fmt.Printf("%4d  %8s  %10d  %10s  %10s  %10s  %-24s  %s\n",
			q.ID, (time.Duration(q.Seconds * float64(time.Second))).Round(time.Millisecond),
			q.Rows, formatBytes(q.LiveBytes), formatBytes(q.PeakBytes), formatBytes(q.SpillBytes),
			q.Operator, sql)
	}
}

// killQuery cancels an active query via DELETE /queries/{id}.
func killQuery(server, id string) {
	call(http.MethodDelete, server+"/queries/"+id, "", nil, 200)
	fmt.Printf("query %s cancelled\n", id)
}

// printTenants renders GET /tenants: one block per account with cumulative
// meters and the sliding-window SLO stats.
func printTenants(body []byte) {
	var doc api.TenantsResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	fmt.Printf("%d tenant account%s\n", len(doc.Tenants), plural(len(doc.Tenants), "", "s"))
	for _, u := range doc.Tenants {
		fmt.Printf("\n%s  queries=%d errors=%d experiments=%d", u.Tenant, u.Queries, u.QueryErrors, u.Experiments)
		if u.ExperimentErrors > 0 {
			fmt.Printf(" experiment_errors=%d", u.ExperimentErrors)
		}
		if u.DegradedExperiments > 0 {
			fmt.Printf(" degraded=%d", u.DegradedExperiments)
		}
		fmt.Printf("\n  rows in=%d out=%d  shipped rows=%d bytes=%s  wall=%.3fs  mem_peak=%s\n",
			u.RowsIn, u.RowsOut, u.RowsShipped, formatBytes(u.BytesShipped), u.Seconds, formatBytes(u.MemPeakBytes))
		fmt.Printf("  first_seen=%s  last_seen=%s", u.FirstSeen.Format(time.RFC3339), u.LastSeen.Format(time.RFC3339))
		verdicts := make([]string, 0, len(u.Verdicts))
		for v, n := range u.Verdicts {
			verdicts = append(verdicts, fmt.Sprintf("%s=%d", v, n))
		}
		sort.Strings(verdicts)
		fmt.Printf("  verdicts: %s\n", strings.Join(verdicts, " "))
		names := make([]string, 0, len(u.Windows))
		for w := range u.Windows {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			s := u.Windows[w]
			fmt.Printf("  %-4s count=%d errors=%d qps=%.2f err=%.1f%% p50=%.3fs p95=%.3fs p99=%.3fs\n",
				w, s.Count, s.Errors, s.QPS, 100*s.ErrorRate, s.P50, s.P95, s.P99)
		}
	}
}

// printAudit renders GET /audit: the verification verdict, then one line
// per record, oldest first.
func printAudit(body []byte) {
	var doc api.AuditResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	status := "chain VERIFIED"
	if !doc.Verified {
		status = "chain BROKEN"
	}
	if doc.VerifyError != "" {
		status += ": " + doc.VerifyError
	}
	fmt.Printf("%d record%s, head seq=%d hash=%.16s...  %s\n",
		len(doc.Records), plural(len(doc.Records), "", "s"), doc.HeadSeq, doc.Head, status)
	for _, r := range doc.Records {
		fmt.Printf("%6d  %s  %-10s  %-12s  %-8s %7.3fs",
			r.Seq, r.Time.Format("15:04:05.000"), r.Kind, r.Tenant, r.Verdict, r.Seconds)
		if r.QueryID != "" {
			fmt.Printf("  id=%s", r.QueryID)
		}
		if r.SQLDigest != "" {
			fmt.Printf("  sql=%s", r.SQLDigest)
		}
		if r.Job != "" {
			fmt.Printf("  job=%s", r.Job)
		}
		if len(r.Datasets) > 0 {
			fmt.Printf("  datasets=%s", strings.Join(r.Datasets, ","))
		}
		if len(r.Workers) > 0 {
			fmt.Printf("  workers=%s", strings.Join(r.Workers, ","))
		}
		if len(r.Dropped) > 0 {
			fmt.Printf("  dropped=%s", strings.Join(r.Dropped, ","))
		}
		if r.Rows > 0 {
			fmt.Printf("  rows=%d", r.Rows)
		}
		fmt.Println()
	}
}

// printCache renders GET /cache: one line per cache tier with hit rates.
func printCache(body []byte) {
	var doc api.CacheStatsResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	rate := func(hits, misses int64) string {
		if hits+misses == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	p, r := doc.Plan, doc.Result
	fmt.Printf("plan cache    entries=%d/%d hits=%d misses=%d hit_rate=%s\n",
		p.Entries, p.Capacity, p.Hits, p.Misses, rate(p.Hits, p.Misses))
	fmt.Printf("result cache  entries=%d bytes=%s", r.Entries, formatBytes(r.Bytes))
	if r.BudgetBytes > 0 {
		fmt.Printf("/%s", formatBytes(r.BudgetBytes))
	}
	fmt.Printf(" hits=%d misses=%d evictions=%d hit_rate=%s\n",
		r.Hits, r.Misses, r.Evictions, rate(r.Hits, r.Misses))
}

// flushCache drops both cache tiers via POST /cache/flush, attributing the
// (audited) flush to -tenant when given.
func flushCache(server, tenant string) {
	body := call(http.MethodPost, server+"/cache/flush", tenant, nil, 200)
	var doc api.CacheFlushResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	fmt.Printf("flushed %d plan entr%s, %d result entr%s\n",
		doc.Plan, plural(doc.Plan, "y", "ies"), doc.Result, plural(doc.Result, "y", "ies"))
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// printHealth renders the /healthz document as aligned key: value lines.
func printHealth(body []byte) {
	var h map[string]any
	if json.Unmarshal(body, &h) != nil {
		fmt.Println(string(body))
		return
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := h[k].(type) {
		case float64:
			fmt.Printf("%-16s %s\n", k, strconv.FormatFloat(v, 'f', -1, 64))
		case map[string]any:
			enc, _ := json.Marshal(v)
			fmt.Printf("%-16s %s\n", k, enc)
		default:
			fmt.Printf("%-16s %v\n", k, v)
		}
	}
}

// printWorkers renders GET /workers as one line per worker: id, circuit
// state, hosted datasets, and the last error for unhealthy workers.
func printWorkers(body []byte) {
	var ws []api.WorkerView
	if json.Unmarshal(body, &ws) != nil {
		fmt.Println(string(body))
		return
	}
	for _, w := range ws {
		fmt.Printf("%-16s %-9s datasets=%s", w.ID, w.State, strings.Join(w.Datasets, ","))
		if w.ConsecutiveFailures > 0 {
			fmt.Printf("  failures=%d", w.ConsecutiveFailures)
		}
		if w.LastError != "" {
			fmt.Printf("  last_error=%q", w.LastError)
		}
		fmt.Println()
	}
}

// printTrace renders the span tree as an indented timing outline:
//
//	experiment linear_regression                      12.4ms
//	  localrun lr_local                                8.1ms  job_id=...
//	    worker hospital-0                              7.9ms  rows=300
//	      exec lr_local                                 7.2ms
func printTrace(body []byte) {
	var doc api.TraceResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		log.Fatalf("decoding trace: %v", err)
	}
	if len(doc.Tree) == 0 {
		fmt.Printf("trace %s: no spans recorded\n", doc.TraceID)
		return
	}
	fmt.Printf("trace %s\n", doc.TraceID)
	for _, root := range doc.Tree {
		printSpan(root, 0)
	}
}

func printSpan(s *obs.SpanNode, depth int) {
	indent := strings.Repeat("  ", depth)
	label := indent + s.Name
	fmt.Printf("%-48s %9.3fms", label, s.DurMS)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%s", k, s.Attrs[k])
	}
	if s.Err != "" {
		fmt.Printf("  ERROR=%s", s.Err)
	}
	fmt.Println()
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}

func get(url string, show func([]byte)) {
	show(call(http.MethodGet, url, "", nil, 200))
}

// call issues one request — a JSON body when in is non-nil, the tenant
// header when set — and returns the response body. Any status but want is
// fatal.
func call(method, url, tenant string, in any, want int) []byte {
	var body io.Reader
	if in != nil {
		enc, _ := json.Marshal(in)
		body = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		log.Fatal(err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-MIP-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		log.Fatalf("HTTP %d: %s", resp.StatusCode, out)
	}
	return out
}

func prettyPrint(body []byte) {
	var v any
	if json.Unmarshal(body, &v) == nil {
		out, _ := json.MarshalIndent(v, "", "  ")
		fmt.Println(string(out))
		return
	}
	fmt.Println(string(body))
}

func runExperiment(server, name, tenant, algorithm, datasets, y, x, filter string, params []string) {
	if algorithm == "" {
		log.Fatal("run needs -algorithm")
	}
	req := api.ExperimentRequest{Name: name, Algorithm: algorithm, Tenant: tenant, Request: algorithms.Request{
		Datasets:   splitList(datasets),
		Y:          splitList(y),
		X:          splitList(x),
		Filter:     filter,
		Parameters: parseParams(params),
	}}
	var exp api.Experiment
	if err := json.Unmarshal(call(http.MethodPost, server+"/experiments", "", req, 201), &exp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experiment %s submitted; polling...\n", exp.UUID)
	for {
		time.Sleep(200 * time.Millisecond)
		get(server+"/experiments/"+exp.UUID, func(b []byte) { json.Unmarshal(b, &exp) })
		switch exp.Status {
		case "success":
			prettyPrint(exp.Result)
			return
		case "error":
			log.Fatalf("experiment failed: %s", exp.Error)
		default:
			fmt.Printf("  status: %s (your experiment is currently running)\n", exp.Status)
		}
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseParams turns key=value flags into a parameter map, guessing types:
// numbers become numbers, comma lists become string lists, "k1:v1;k2:v2"
// nested lists become level maps.
func parseParams(params []string) map[string]any {
	out := map[string]any{}
	for _, p := range params {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			log.Fatalf("bad -param %q (want key=value)", p)
		}
		out[k] = guessValue(v)
	}
	return out
}

func guessValue(v string) any {
	if n, err := strconv.ParseFloat(v, 64); err == nil {
		return n
	}
	if strings.Contains(v, ";") { // levels map: var:l1|l2;var2:l1|l2
		m := map[string]any{}
		for _, pair := range strings.Split(v, ";") {
			name, lv, ok := strings.Cut(pair, ":")
			if !ok {
				continue
			}
			var levels []any
			for _, l := range strings.Split(lv, "|") {
				levels = append(levels, l)
			}
			m[name] = levels
		}
		return m
	}
	if strings.Contains(v, ",") {
		var list []any
		for _, e := range strings.Split(v, ",") {
			list = append(list, strings.TrimSpace(e))
		}
		return list
	}
	return v
}

// runWorkflow submits a chain of steps given as "alg:dataset:y[:x]"
// positional arguments and polls it to completion, e.g.
//
//	mipctl workflow descriptive_stats:edsd:ab42 pca:edsd:ab42,p_tau
func runWorkflow(server, name string, stepSpecs []string) {
	if len(stepSpecs) == 0 {
		log.Fatal("workflow needs at least one step (alg:datasets:y[:x])")
	}
	req := api.WorkflowRequest{Name: name}
	for _, spec := range stepSpecs {
		parts := strings.Split(spec, ":")
		if len(parts) < 3 {
			log.Fatalf("bad step %q (want alg:datasets:y[:x])", spec)
		}
		step := api.WorkflowStep{Name: parts[0], Algorithm: parts[0], Request: algorithms.Request{
			Datasets: splitList(parts[1]),
			Y:        splitList(parts[2]),
		}}
		if len(parts) > 3 {
			step.Request.X = splitList(parts[3])
		}
		req.Steps = append(req.Steps, step)
	}
	var wf api.Workflow
	if err := json.Unmarshal(call(http.MethodPost, server+"/workflows", "", req, 201), &wf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow %s submitted; polling...\n", wf.UUID)
	for {
		time.Sleep(200 * time.Millisecond)
		get(server+"/workflows/"+wf.UUID, func(b []byte) { json.Unmarshal(b, &wf) })
		if wf.Status == "success" || wf.Status == "error" {
			fmt.Printf("workflow %s: %s\n", wf.UUID, wf.Status)
			steps, _ := json.Marshal(wf.Steps)
			prettyPrint(steps)
			return
		}
		fmt.Printf("  status: %s\n", wf.Status)
	}
}
