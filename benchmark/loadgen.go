package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/algorithms"
	"mip/internal/api"
	"mip/internal/engine"
	"mip/internal/federation"
)

// env is one ready-to-measure instance of a workload: the topology (or, for
// engine_sql, the two local database handles) built from the seed.
type env struct {
	w    *workload
	seed int64
	rec  *recorder // nil on the untraced pass

	topo     *topology
	dbs      [2]*engine.DB // engine_sql: in-memory handle, spilling handle
	tables   map[string]*engine.Table
	spillDir string
	httpc    *http.Client

	// writeSeq is a sequence lock over the hospitals' data: odd while a write
	// is in flight, and writeSeq/2 writes have completed. A read that sees
	// the same even value before and after ran against exactly that state.
	writeMu  sync.Mutex
	writeSeq atomic.Int64
	writes   []op // completed writes, in order

	// expOp maps experiment uuids to load-generator op ids (traced pass).
	expMu sync.Mutex
	expOp map[string]int64
}

const spillBudget = 2 << 20

// newEnv is the timed set-up: data generation and topology build.
func newEnv(w *workload, seed int64, rec *recorder) (*env, error) {
	e := &env{w: w, seed: seed, rec: rec, expOp: make(map[string]int64)}
	if w.engineRows == 0 {
		t, err := buildTopology(w.topo, seed, rec)
		if err != nil {
			return nil, err
		}
		e.topo = t
		e.httpc = &http.Client{Transport: t.transport}
		return e, nil
	}
	data, err := generateHospital(seed, 0, w.engineRows)
	if err != nil {
		return nil, err
	}
	e.tables = map[string]*engine.Table{"data": data, "visits": generateVisits(seed, w.engineRows)}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if e.spillDir, err = os.MkdirTemp(outDir, "spill-"); err != nil {
		return nil, err
	}
	e.dbs[0] = engine.NewDB()
	e.dbs[1] = engine.NewDB(engine.WithQueryMemLimit(spillBudget), engine.WithSpillDir(e.spillDir))
	for _, db := range e.dbs {
		for name, t := range e.tables {
			db.RegisterTable(name, t)
		}
	}
	return e, nil
}

// generateVisits is engine_sql's keyed side table: one row per data row, a
// bucket column with about rows/6 distinct values, and a uniform score.
func generateVisits(seed int64, rows int) *engine.Table {
	ids := make([]int64, rows)
	buckets := make([]int64, rows)
	scores := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		buckets[i] = int64(mix(uint64(seed)^uint64(i)<<20) % uint64(rows/6+1))
		scores[i] = jitter(seed, 0, i, 77)
	}
	t, err := engine.NewTableFromVectors(engine.Schema{
		{Name: "row_id", Type: engine.Int64},
		{Name: "bucket", Type: engine.Int64},
		{Name: "score", Type: engine.Float64},
	}, []*engine.Vector{
		engine.NewInt64Vector(ids, nil),
		engine.NewInt64Vector(buckets, nil),
		engine.NewFloat64Vector(scores, nil),
	})
	if err != nil {
		panic(err) // three equal-length vectors of the declared types
	}
	return t
}

func (e *env) close() {
	if e.topo != nil {
		e.topo.close()
	}
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
}

// outcome is what one executed op leaves behind for the checker. Large
// shipped tables are reduced to a digest on the spot; small results are kept.
type outcome struct {
	op     op
	err    error
	json   []byte        // experiment result document
	table  *engine.Table // small SQL result
	dig    digest        // large SQL result
	sorted bool          // ORDER BY column was in order
	// state is the number of completed writes the op ran against, or -1 when
	// a write overlapped it (such a read is not checked).
	state int64
}

// smallRows is the largest result kept whole for a tolerance comparison.
const smallRows = 1000

// client is one closed-loop user: it sends its next op only after the
// previous one completed.
type client struct {
	e   *env
	idx int

	lat       map[string][]float64 // op latency in ms, by class
	inSystem  time.Duration        // time spent inside calls into the system
	outcomes  []outcome
	attempted int
	checked   int64 // last write state this client had a read checked at

	// Traced pass only.
	hitMS, missMS []float64
	depthMax      int
}

func newClient(e *env, idx int) *client {
	return &client{e: e, idx: idx, lat: make(map[string][]float64), checked: -1}
}

// run executes one cycle of the workload's op sequence.
func (c *client) run(cycle int) {
	for _, o := range c.e.w.ops(c.e.seed, c.idx, cycle) {
		c.do(o)
	}
}

func (c *client) do(o op) {
	c.attempted++
	out := outcome{op: o}
	var took time.Duration
	// On the traced pass the op is the root span of everything it causes.
	rec := c.e.rec
	var id, start int64
	if rec != nil {
		id, start = rec.newID(), rec.now()
	}
	switch o.kind {
	case kindExperiment:
		took = c.experiment(&out, id)
	case kindMerge:
		took = c.merge(&out)
	case kindWrite:
		took = c.write(&out)
	case kindEngine:
		took = c.engine(&out)
	}
	if rec != nil {
		rec.add(span{ID: id, Op: id, Layer: layerLoadgen, Name: o.class,
			Start: start, End: start + int64(took)})
	}
	c.inSystem += took
	c.lat[o.class] = append(c.lat[o.class], float64(took)/1e6)
	// Successful writes and unchecked reads leave nothing to verify.
	if out.err != nil || (o.kind != kindWrite && out.state >= 0) {
		c.outcomes = append(c.outcomes, out)
	}
}

// child runs fn as a child span of op (on the untraced pass it just runs
// fn). fn gets the span's id to pass on to the server side.
func (c *client) child(op int64, name string, fn func(spanID int64)) {
	rec := c.e.rec
	if rec == nil {
		fn(0)
		return
	}
	id, start := rec.newID(), rec.now()
	fn(id)
	rec.add(span{ID: id, Parent: op, Op: op, Layer: layerAPI, Name: name, Start: start, End: rec.now()})
}

// experiment is the dashboard path: submit over REST, wait, fetch and decode.
func (c *client) experiment(out *outcome, id int64) time.Duration {
	e := c.e
	t0 := time.Now()
	body, err := json.Marshal(out.op.exp)
	if err != nil {
		out.err = err
		return time.Since(t0)
	}
	var created, done api.Experiment
	c.child(id, "submit", func(sp int64) {
		out.err = e.callAPI(http.MethodPost, "/experiments", body, sp, &created)
	})
	if out.err != nil {
		return time.Since(t0)
	}
	if e.rec != nil {
		if depth := e.topo.runner.Depth(); depth > c.depthMax {
			c.depthMax = depth
		}
	}
	c.child(id, "wait", func(int64) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, out.err = e.topo.api.WaitForExperiment(ctx, created.UUID)
	})
	if out.err != nil {
		return time.Since(t0)
	}
	c.child(id, "fetch", func(sp int64) {
		out.err = e.callAPI(http.MethodGet, "/experiments/"+created.UUID, nil, sp, &done)
	})
	took := time.Since(t0)
	if e.rec != nil {
		e.noteExperiment(done.UUID, id)
	}
	if out.err == nil && done.Status != "success" {
		out.err = fmt.Errorf("experiment %s: %s: %s", done.UUID, done.Status, done.Error)
	}
	out.json = done.Result
	return took
}

// callAPI is one REST call, decoded into out. sp names the client-side span
// for the server-side middleware of the traced pass.
func (e *env) callAPI(method, path string, body []byte, sp int64, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.topo.apiURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp, 10))
	}
	resp, err := e.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// merge is one statement over the federation's merge table.
func (c *client) merge(out *outcome) time.Duration {
	e := c.e
	classify := e.rec != nil && e.w.topo.cacheMB > 0 // traced pass: hit or miss?
	var before federation.ResultCacheStats
	if classify {
		before = e.topo.master.ResultCacheStats()
	}
	s0 := e.writeSeq.Load()
	t0 := time.Now()
	t, dropped, err := e.topo.master.MergeQueryDegradedAs(benchTenant, []string{dataset}, out.op.sql)
	took := time.Since(t0)
	out.state = -1
	if s1 := e.writeSeq.Load(); s0 == s1 && s0%2 == 0 {
		out.state = s0 / 2
	}
	if err == nil && len(dropped) > 0 {
		err = fmt.Errorf("degraded result, dropped %v", dropped)
	}
	if err != nil {
		out.err = err
		return took
	}
	if classify {
		after := e.topo.master.ResultCacheStats()
		switch ms := float64(took) / 1e6; {
		case after.Misses == before.Misses:
			c.hitMS = append(c.hitMS, ms)
		case after.Hits == before.Hits:
			c.missMS = append(c.missMS, ms)
		} // both moved: the other client's op overlapped; unclassified
	}
	c.keep(out, t)
	return took
}

// keep reduces a SQL result to what the checker needs. With a result cache
// only one read per client and write state is checked; the others keep
// nothing.
func (c *client) keep(out *outcome, t *engine.Table) {
	if c.e.w.topo.cacheMB > 0 {
		if out.state < 0 || out.state == c.checked {
			out.state = -1
			return
		}
		c.checked = out.state
	}
	if out.op.orderBy != "" {
		out.sorted = isSorted(t, out.op.orderBy, out.op.desc)
	}
	if t.NumRows() <= smallRows {
		out.table = t
	} else {
		out.dig = digestTable(t)
	}
}

// write inserts or deletes rows straight in one hospital's engine, the way
// the hospital's own ETL would, under the sequence lock.
func (c *client) write(out *outcome) time.Duration {
	e := c.e
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.writeSeq.Add(1)
	t0 := time.Now()
	_, out.err = e.topo.workers[out.op.site].DB().Query(out.op.sql)
	took := time.Since(t0)
	e.writes = append(e.writes, out.op)
	e.writeSeq.Add(1)
	return took
}

// engine is one statement straight into the local analytics database.
func (c *client) engine(out *outcome) time.Duration {
	t0 := time.Now()
	t, err := c.e.dbs[out.op.site].Query(out.op.sql)
	took := time.Since(t0)
	if err != nil {
		out.err = err
		return took
	}
	c.keep(out, t)
	return took
}

// isSorted reports whether the named float column is in order, NULLs at
// either end.
func isSorted(t *engine.Table, col string, desc bool) bool {
	v := t.ColByName(col)
	if v == nil || v.Type() != engine.Float64 {
		return false
	}
	prev := math.NaN()
	for i, x := range v.Float64s() {
		if v.IsNull(i) {
			continue
		}
		if prev == prev && ((desc && x > prev) || (!desc && x < prev)) {
			return false
		}
		prev = x
	}
	return true
}

// reference is the pooled single-database deployment results are checked
// against: every hospital's rows in one engine, one in-process worker.
type reference struct {
	db     *engine.DB
	master *federation.Master
	exp    map[string][]byte
	// sql memoizes reference results of the local analytics statements, which
	// repeat every cycle over data that never changes.
	sql map[string]*engine.Table
	// applied is how many of the run's writes have been replayed on db.
	applied int64
}

func (e *env) newReference() (*reference, error) {
	r := &reference{exp: make(map[string][]byte), sql: make(map[string]*engine.Table)}
	if e.topo == nil {
		// Local analytics: the same tables, executed serially.
		r.db = engine.NewDB(engine.WithParallelism(1))
		for name, t := range e.tables {
			r.db.RegisterTable(name, t)
		}
		return r, nil
	}
	// The hospitals' tables are regenerated rather than read back, so the
	// reference never sees rows the run inserted.
	var tables []*engine.Table
	for i := 0; i < e.w.topo.hospitals; i++ {
		t, err := generateHospital(e.seed, i, e.w.topo.rows)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	all, err := pooled(tables)
	if err != nil {
		return nil, err
	}
	r.db = engine.NewDB()
	r.db.RegisterTable(federation.DataTable, all)
	m, err := federation.NewMaster([]federation.WorkerClient{federation.NewWorker("pooled", r.db)},
		nil, federation.Security{})
	if err != nil {
		return nil, err
	}
	r.master = m
	return r, nil
}

func (r *reference) close() {
	if r.master != nil {
		r.master.Close()
	}
}

// experiment runs (once per class) the algorithm on the pooled deployment.
func (r *reference) experiment(o op) ([]byte, error) {
	if doc, ok := r.exp[o.class]; ok {
		return doc, nil
	}
	sess, err := r.master.NewSession(o.exp.Request.Datasets)
	if err != nil {
		return nil, err
	}
	res, err := algorithms.Run(algorithms.Get(o.exp.Algorithm), sess, o.exp.Request)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	r.exp[o.class] = doc
	return doc, nil
}

// verify checks every outcome against the reference and returns how many
// failed (an op that returned an error counts as failed), how many of those
// were stale cached reads, and the first failure. Outcomes must come in
// write-state order: the writes the run completed are replayed on the pooled
// table as the states advance.
func (e *env) verify(ref *reference, outs []outcome) (failed, stale int, first error) {
	cached := e.w.topo.cacheMB > 0
	fail := func(o outcome, err error) {
		failed++
		if first == nil {
			first = fmt.Errorf("%s: %w", o.op.class, err)
		}
	}
	for _, o := range outs {
		if o.err != nil {
			fail(o, o.err)
			continue
		}
		if o.op.kind == kindExperiment {
			want, err := ref.experiment(o.op)
			if err == nil {
				err = equalJSON(o.json, want, e.w.tol)
			}
			if err != nil {
				fail(o, err)
			}
			continue
		}
		for ; ref.applied < o.state; ref.applied++ {
			if _, err := ref.db.Query(e.writes[ref.applied].sql); err != nil {
				fail(o, fmt.Errorf("replaying write: %w", err))
			}
		}
		if err := e.verifySQL(ref, o); err != nil {
			if cached {
				stale++
			}
			fail(o, err)
		}
	}
	return failed, stale, first
}

func (e *env) verifySQL(ref *reference, o outcome) error {
	sql := o.op.ref
	if sql == "" {
		sql = o.op.sql
	}
	want := ref.sql[sql]
	if want == nil {
		var err error
		if want, err = ref.db.Query(sql); err != nil {
			return err
		}
		if o.op.kind == kindEngine {
			ref.sql[sql] = want
		}
	}
	if o.op.orderBy != "" && !o.sorted {
		return fmt.Errorf("result not ordered by %s", o.op.orderBy)
	}
	if o.table != nil {
		return equalTables(o.table, want, e.w.tol)
	}
	if got, exp := o.dig, digestTable(want); got != exp {
		return fmt.Errorf("digest %v, want %v", got, exp)
	}
	return nil
}
