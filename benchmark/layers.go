package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mip/internal/federation"
	"mip/internal/obs"
	"mip/internal/queue"
	"mip/internal/smpc"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (TestManifestMatches keeps the two in step).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics are measured on the traced pass, from outside the program:
// decorated seams, public counters read before and after, a scrape of
// /metrics, and timed probes of public functions.
var perLayerMetrics = []metricDef{
	{"api.submit_ms_p50", "ms"}, {"api.fetch_ms_p50", "ms"}, {"api.requests_per_op", "count"},
	{"queue.wait_ms_p50", "ms"}, {"queue.wait_ms_p95", "ms"}, {"queue.depth_max", "count"},
	{"master.rounds_per_op", "count"}, {"master.fanout_ms_per_op", "ms"}, {"master.straggler_ms_p50", "ms"},
	{"master.self_ms_per_op", "ms"}, {"master.merge_ms_per_op", "ms"},
	{"wire.calls_per_op", "count"}, {"wire.req_bytes_per_op", "B"}, {"wire.resp_bytes_per_op", "B"},
	{"wire.rtt_minus_handler_ms_p50", "ms"}, {"wire.retries_per_op", "count"},
	{"wire.encode_ms_per_mb", "ms"}, {"wire.decode_ms_per_mb", "ms"},
	{"worker.handle_ms_p50", "ms"}, {"worker.handle_ms_p95", "ms"},
	{"worker.datastamp_ms_p50", "ms"}, {"worker.dataset_refresh_ms_p50", "ms"},
	{"engine.queries_per_op", "count"}, {"engine.rows_scanned_per_op", "count"},
	{"engine.filter_ms_per_op", "ms"}, {"engine.aggregate_ms_per_op", "ms"}, {"engine.join_ms_per_op", "ms"},
	{"engine.sort_ms_per_op", "ms"}, {"engine.project_ms_per_op", "ms"},
	{"engine.mem_peak_mb_max", "MB"}, {"engine.spill_mb_per_op", "MB"}, {"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.scan_filter_ms_p50", "ms"}, {"engine.group_lo_ms_p50", "ms"}, {"engine.group_hi_ms_p50", "ms"},
	{"engine.join_agg_ms_p50", "ms"}, {"engine.sort_full_ms_p50", "ms"}, {"engine.topk_ms_p50", "ms"},
	{"engine.join_agg_spill_ms_p50", "ms"}, {"engine.write_ms_p50", "ms"},
	{"resultcache.hit_ratio", "ratio"}, {"resultcache.evictions", "count"},
	{"resultcache.read_hit_ms_p50", "ms"}, {"resultcache.read_miss_ms_p50", "ms"}, {"resultcache.stale_serves", "count"},
	{"smpc.messages_per_op", "count"}, {"smpc.bytes_per_op", "B"},
	{"smpc.import_ms_per_op", "ms"}, {"smpc.busy_ms_per_op", "ms"},
	{"smpc.ft_sum_ms", "ms"}, {"smpc.ft_min_ms", "ms"}, {"smpc.ft_product_ms", "ms"},
	{"smpc.shamir_sum_ms", "ms"}, {"smpc.shamir_min_ms", "ms"}, {"smpc.import_ms", "ms"},
	{"process.cpu_ms_per_op", "ms"}, {"process.allocs_per_op", "count"}, {"process.alloc_mb_per_op", "MB"},
	{"process.gc_pause_ms_total", "ms"}, {"loadgen.self_ms_per_op", "ms"},
	{"trace.throughput_ops_s", "1/s"}, {"trace.accounted_ratio", "ratio"},
}

// counters is a reading of every public counter the per-layer metrics are
// deltas of.
type counters struct {
	prom       map[string]float64 // GET /metrics, series → value
	cpu        time.Duration
	mem        runtime.MemStats
	smpc       smpc.NetStats
	cache      federation.ResultCacheStats
	memPeakMax int64
}

func (e *env) readCounters() counters {
	c := counters{prom: scrapeMetrics()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&c.mem)
	if e.topo != nil {
		if e.topo.cluster != nil {
			c.smpc = e.topo.cluster.NetStats()
		}
		c.cache = e.topo.master.ResultCacheStats()
	}
	for _, u := range obs.DefaultTenants.Snapshot() {
		if u.MemPeakBytes > c.memPeakMax {
			c.memPeakMax = u.MemPeakBytes
		}
	}
	return c
}

// scrapeMetrics renders the process registry through its HTTP handler and
// parses the Prometheus text into series → value.
func scrapeMetrics() map[string]float64 {
	rr := httptest.NewRecorder()
	obs.MetricsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// promDelta sums, over every series of the family (optionally restricted to
// those containing label), how much the counter grew between two scrapes.
func promDelta(before, after counters, family, label string) float64 {
	var d float64
	for series, v := range after.prom {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if name == family && strings.Contains(series, label) {
			d += v - before.prom[series]
		}
	}
	return d
}

// noteExperiment ties a finished experiment to its load-generator op and
// copies the spans the program already recorded for it that no seam of the
// benchmark can see (the process trace store is a bounded FIFO, so they are
// read right away): the master's SMPC rounds and, on a secure topology, each
// worker step ("exec ...") with its UDF call and row-count query, which is
// what the step's share import is told apart from.
func (e *env) noteExperiment(uuid string, opID int64) {
	e.expMu.Lock()
	e.expOp[uuid] = opID
	e.expMu.Unlock()
	at := e.rec.at
	ds := obs.DefaultTraces.Spans(uuid)
	execs := make(map[string]int64) // program span id → recorder span id
	for _, d := range ds {
		switch {
		case strings.HasPrefix(d.Name, "smpc "):
			e.rec.add(span{ID: e.rec.newID(), Op: opID, Layer: layerSMPC, Name: d.Name, Trace: uuid,
				Start: at(d.Start), End: at(d.End)})
		case e.w.topo.secure && strings.HasPrefix(d.Name, "exec "):
			id := e.rec.newID()
			execs[d.SpanID] = id
			e.rec.add(span{ID: id, Op: opID, Layer: layerWorker, Name: "exec", Worker: d.Attrs["worker"],
				Key: d.Name, Trace: uuid, Start: at(d.Start), End: at(d.End)})
		}
	}
	for _, d := range ds {
		if parent, ok := execs[d.Parent]; ok {
			e.rec.add(span{ID: e.rec.newID(), Parent: parent, Op: opID, Layer: layerWorker, Name: "exec child",
				Key: d.Name, Trace: uuid, Start: at(d.Start), End: at(d.End)})
		}
	}
}

// taskSpans turns the queue runner's task records of the measured window into
// queue-wait and task-run spans under their ops.
func (e *env) taskSpans(windowStart time.Time) (wait, run []span) {
	for _, t := range e.topo.runner.List() {
		if t.State != queue.Success || t.Created.Before(windowStart) {
			continue
		}
		var res struct {
			UUID string `json:"uuid"`
		}
		if json.Unmarshal(t.Result, &res) != nil {
			continue
		}
		e.expMu.Lock()
		opID := e.expOp[res.UUID]
		e.expMu.Unlock()
		at := e.rec.at
		wait = append(wait, span{ID: e.rec.newID(), Parent: opID, Op: opID, Layer: layerQueue, Name: "wait",
			Trace: res.UUID, Start: at(t.Created), End: at(t.Started)})
		run = append(run, span{ID: e.rec.newID(), Parent: opID, Op: opID, Layer: layerMaster, Name: "task",
			Trace: res.UUID, Start: at(t.Started), End: at(t.Finished)})
	}
	return wait, run
}

// window is what the load generator hands over after the measured window.
type window struct {
	start    time.Time
	wall     time.Duration
	ops      int                  // timed ops
	lat      map[string][]float64 // by class, all clients
	inSystem time.Duration        // Σ over clients
	busy     time.Duration        // Σ over clients of their loop wall
	clients  []*client
	stale    int
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = msOf(s.dur())
	}
	return out
}

// layerMetrics computes every per-layer metric of the traced pass.
func (e *env) layerMetrics(win window, before, after counters) map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	ops := float64(win.ops)
	perOp := func(total float64) float64 { return ratio(total, ops) }

	var waits, tasks []span
	if e.topo != nil && e.topo.runner != nil {
		waits, tasks = e.taskSpans(win.start)
		for _, s := range append(append([]span(nil), waits...), tasks...) {
			e.rec.add(s)
		}
	}
	spans := e.rec.snapshot()
	children := make(map[int64][]span)
	pick := func(layer string, names ...string) []span {
		var out []span
		for _, s := range spans {
			if s.Layer != layer {
				continue
			}
			for _, n := range names {
				if s.Name == n {
					out = append(out, s)
				}
			}
		}
		return out
	}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	// api: the load generator's own client-side timers and the server-side
	// middleware count.
	m["api.submit_ms_p50"] = median(durations(pick(layerAPI, "submit")))
	m["api.fetch_ms_p50"] = median(durations(pick(layerAPI, "fetch")))
	var apiRequests int
	for _, s := range spans {
		if s.Layer == layerAPI && strings.Contains(s.Name, " /") {
			apiRequests++
		}
	}
	m["api.requests_per_op"] = perOp(float64(apiRequests))

	// queue: the runner's own task timestamps.
	w := durations(waits)
	m["queue.wait_ms_p50"] = median(w)
	m["queue.wait_ms_p95"] = percentile(w, 95)
	for _, c := range win.clients {
		if d := float64(c.depthMax); d > m["queue.depth_max"] {
			m["queue.depth_max"] = d
		}
	}

	// master: worker calls grouped into fan-out rounds by job id / part SQL.
	calls := pick(layerMaster, "localrun", "query")
	probes := pick(layerMaster, "datastamp", "datasetinfo", "datasets")
	rounds := make(map[string][]span)
	for _, s := range calls {
		rounds[s.Key] = append(rounds[s.Key], s)
	}
	var fanoutNs, probeNs int64
	var stragglers []float64
	roundsOf := make(map[string][]span) // experiment uuid → its rounds
	for key, cs := range rounds {
		r := span{Layer: layerMaster, Name: "round", Key: key, Trace: cs[0].Trace, Start: cs[0].Start, End: cs[0].End}
		for _, c := range cs {
			if c.Start < r.Start {
				r.Start = c.Start
			}
			if c.End > r.End {
				r.End = c.End
			}
		}
		fanoutNs += unionNanos(cs, r.Start, r.End)
		if len(cs) > 1 {
			d := durations(cs)
			stragglers = append(stragglers, percentile(d, 100)-median(d))
		}
		if r.Trace != "" {
			roundsOf[r.Trace] = append(roundsOf[r.Trace], r)
		}
	}
	for _, s := range probes {
		probeNs += s.dur()
	}
	m["master.rounds_per_op"] = perOp(float64(len(rounds)))
	m["master.fanout_ms_per_op"] = perOp(msOf(fanoutNs + probeNs))
	m["master.straggler_ms_p50"] = median(stragglers)

	// A task's self time is its run minus its fan-out rounds and SMPC rounds:
	// orchestration, global steps and aggregation on the master.
	smpcOf := make(map[string][]span)
	for _, s := range spans {
		if s.Layer == layerSMPC {
			smpcOf[s.Trace] = append(smpcOf[s.Trace], s)
		}
	}
	var taskSelfNs int64
	for _, t := range tasks {
		taskSelfNs += selfNanos(t, append(roundsOf[t.Trace], smpcOf[t.Trace]...))
	}
	m["master.self_ms_per_op"] = perOp(msOf(taskSelfNs))

	// Merge statements: what the op spent outside its worker calls is the
	// master's planning, fan-in and master-side operators.
	var mergeNs int64
	var mergeOps int
	var opNs int64
	for class, lat := range win.lat {
		for _, ms := range lat {
			opNs += int64(ms * 1e6)
		}
		if e.topo != nil && !e.w.topo.rest && class != "write" {
			mergeOps += len(lat)
			for _, ms := range lat {
				mergeNs += int64(ms * 1e6)
			}
		}
	}
	if mergeOps > 0 {
		m["master.merge_ms_per_op"] = ratio(msOf(mergeNs-fanoutNs-probeNs), float64(mergeOps))
	}

	// wire: one span per HTTP attempt under each worker call. What a call
	// costs beyond its server-side handler is the wire: request and response
	// codec on the client, HTTP, loopback.
	var wires []span
	var reqB, respB int64
	for _, s := range spans {
		if s.Layer == layerWire {
			wires = append(wires, s)
			reqB += s.ReqBytes
			respB += s.RespBytes
		}
	}
	var gaps []float64
	for _, call := range append(append([]span(nil), calls...), probes...) {
		var handlers []span
		for _, attempt := range children[call.ID] {
			handlers = append(handlers, children[attempt.ID]...)
		}
		if len(handlers) > 0 {
			gaps = append(gaps, msOf(selfNanos(call, handlers)))
		}
	}
	m["wire.calls_per_op"] = perOp(float64(len(calls) + len(probes)))
	m["wire.req_bytes_per_op"] = perOp(float64(reqB))
	m["wire.resp_bytes_per_op"] = perOp(float64(respB))
	m["wire.rtt_minus_handler_ms_p50"] = median(gaps)
	m["wire.retries_per_op"] = perOp(float64(len(wires) - len(calls) - len(probes)))

	// worker: server-side handler time per endpoint.
	handle := durations(pick(layerWorker, "POST /localrun", "POST /query"))
	m["worker.handle_ms_p50"] = median(handle)
	m["worker.handle_ms_p95"] = percentile(handle, 95)
	m["worker.datastamp_ms_p50"] = median(durations(pick(layerWorker, "GET /datastamp")))
	m["worker.dataset_refresh_ms_p50"] = median(durations(pick(layerWorker, "GET /datasets")))

	// engine: deltas of the process-wide engine counters.
	nanos := func(op string) float64 {
		return perOp(promDelta(before, after, "mip_engine_operator_nanos_total", `op="`+op+`"`) / 1e6)
	}
	m["engine.queries_per_op"] = perOp(promDelta(before, after, "mip_engine_queries_total", ""))
	m["engine.rows_scanned_per_op"] = perOp(promDelta(before, after, "mip_engine_rows_scanned_total", ""))
	m["engine.filter_ms_per_op"] = nanos("filter")
	m["engine.aggregate_ms_per_op"] = nanos("aggregate")
	m["engine.join_ms_per_op"] = nanos("join")
	m["engine.sort_ms_per_op"] = nanos("sort")
	m["engine.project_ms_per_op"] = nanos("project")
	m["engine.mem_peak_mb_max"] = float64(after.memPeakMax) / (1 << 20)
	m["engine.spill_mb_per_op"] = perOp(promDelta(before, after, "mip_engine_spill_bytes_total", "") / (1 << 20))
	planHits := promDelta(before, after, "mip_engine_plan_cache_hits_total", "")
	m["engine.plan_cache_hit_ratio"] = ratio(planHits, planHits+promDelta(before, after, "mip_engine_plan_cache_misses_total", ""))
	for _, class := range []string{"scan_filter", "group_lo", "group_hi", "join_agg", "sort_full", "topk", "join_agg_spill", "write"} {
		m["engine."+class+"_ms_p50"] = median(win.lat[class])
	}

	// resultcache: the master's own counters plus reads classified by which
	// counter moved.
	hits := float64(after.cache.Hits - before.cache.Hits)
	m["resultcache.hit_ratio"] = ratio(hits, hits+float64(after.cache.Misses-before.cache.Misses))
	m["resultcache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	var hitMS, missMS []float64
	for _, c := range win.clients {
		hitMS = append(hitMS, c.hitMS...)
		missMS = append(missMS, c.missMS...)
	}
	m["resultcache.read_hit_ms_p50"] = median(hitMS)
	m["resultcache.read_miss_ms_p50"] = median(missMS)
	m["resultcache.stale_serves"] = float64(win.stale)

	// smpc: simulated traffic and the cluster's round-latency histogram.
	m["smpc.messages_per_op"] = perOp(float64(after.smpc.Messages - before.smpc.Messages))
	m["smpc.bytes_per_op"] = perOp(float64(after.smpc.Bytes - before.smpc.Bytes))
	m["smpc.busy_ms_per_op"] = perOp(promDelta(before, after, "mip_smpc_round_seconds_sum", "") * 1e3)
	// What a secure worker step spends outside its UDF call and row-count
	// query is flattening the transfer and sharing it into the cluster. The
	// cluster takes one import at a time, so the steps of a round queue up:
	// per op, the time during which at least one worker was at it.
	importing := make(map[int64][]span) // op → intervals
	for _, s := range pick(layerWorker, "exec") {
		importing[s.Op] = append(importing[s.Op], uncovered(s, children[s.ID])...)
	}
	var importNs int64
	for _, ivs := range importing {
		importNs += unionNanos(ivs, 0, math.MaxInt64)
	}
	m["smpc.import_ms_per_op"] = perOp(msOf(importNs))

	// process and load generator.
	m["process.cpu_ms_per_op"] = perOp(msOf(int64(after.cpu - before.cpu)))
	m["process.allocs_per_op"] = perOp(float64(after.mem.Mallocs - before.mem.Mallocs))
	m["process.alloc_mb_per_op"] = perOp(float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20))
	m["process.gc_pause_ms_total"] = msOf(int64(after.mem.PauseTotalNs - before.mem.PauseTotalNs))
	m["loadgen.self_ms_per_op"] = perOp(msOf(int64(win.busy - win.inSystem)))
	m["trace.throughput_ops_s"] = ratio(ops, win.wall.Seconds())

	// Accounted time, REST ops only: the part of the op's wall that seams other
	// than its own stopwatch saw — client-side submit and fetch, and the
	// runner's own timestamps for queue wait and task run. What is missing is
	// the slack of WaitForExperiment's 2 ms polling. Merge and engine ops have
	// no second, independent seam around the whole op (the worker calls nest
	// inside it and the rest is a remainder, which would be 1 by
	// construction), so the ratio is not reported there (0).
	var accounted float64
	if e.topo != nil && e.w.topo.rest {
		for _, o := range spans {
			if o.Layer != layerLoadgen {
				continue
			}
			var segments []span
			for _, c := range children[o.ID] {
				if c.Name != "wait" || c.Layer != layerAPI {
					segments = append(segments, c)
				}
			}
			accounted += float64(unionNanos(segments, o.Start, o.End))
		}
	}
	m["trace.accounted_ratio"] = ratio(accounted, float64(opNs))
	return m
}

// probeWire times the wire codec on a table the workload ships (hospital 0's
// answer to the selective SELECT *): encode is EncodeTable + json.Marshal,
// decode is json.Unmarshal + DecodeTable, both per MB of JSON.
func (e *env) probeWire() (encMS, decMS float64, err error) {
	t, err := e.topo.workers[0].DB().Query(mergeOps(e.seed, 0, 0)[1].sql)
	if err != nil {
		return 0, 0, err
	}
	var enc, dec []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		buf, err := json.Marshal(federation.EncodeTable(t))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		var wt federation.WireTable
		if err := json.Unmarshal(buf, &wt); err != nil {
			return 0, 0, err
		}
		if _, err := federation.DecodeTable(&wt); err != nil {
			return 0, 0, err
		}
		mb := float64(len(buf)) / (1 << 20)
		enc = append(enc, msOf(int64(t1.Sub(t0)))/mb)
		dec = append(dec, msOf(int64(time.Since(t1)))/mb)
	}
	return median(enc), median(dec), nil
}

const (
	probeDim    = 4096
	probeInputs = 4
)

// probeSMPC times the cluster's public operations at a fixed size (4 inputs
// of dimension 4096), on fresh clusters: the paper's "FT is secure but slow,
// Shamir is fast" rows.
func probeSMPC(seed int64, m map[string]float64) error {
	vals := make([][]float64, probeInputs)
	for i := range vals {
		vals[i] = make([]float64, probeDim)
		for j := range vals[i] {
			vals[i][j] = 100 * jitter(seed, i, j, 9)
		}
	}
	run := func(scheme smpc.Scheme, op smpc.Op) (importMS, aggMS float64, err error) {
		c, err := smpc.NewCluster(smpc.Config{Scheme: scheme, Nodes: 3, Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i, v := range vals {
			if err := c.ImportSecret("probe", "w"+strconv.Itoa(i), v); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		if _, err := c.Aggregate("probe", op, smpc.Noise{}); err != nil {
			return 0, 0, err
		}
		return msOf(int64(t1.Sub(t0))), msOf(int64(time.Since(t1))), nil
	}
	for _, p := range []struct {
		name   string
		scheme smpc.Scheme
		op     smpc.Op
	}{
		{"smpc.ft_sum_ms", smpc.FullThreshold, smpc.OpSum},
		{"smpc.ft_min_ms", smpc.FullThreshold, smpc.OpMin},
		{"smpc.ft_product_ms", smpc.FullThreshold, smpc.OpProduct},
		{"smpc.shamir_sum_ms", smpc.ShamirScheme, smpc.OpSum},
		{"smpc.shamir_min_ms", smpc.ShamirScheme, smpc.OpMin},
	} {
		imp, agg, err := run(p.scheme, p.op)
		if err != nil {
			return err
		}
		m[p.name] = agg
		if p.name == "smpc.ft_sum_ms" {
			m["smpc.import_ms"] = imp
		}
	}
	return nil
}
