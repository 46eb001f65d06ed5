package engine

// Morsel-driven parallel execution. The engine follows MonetDB's
// column-at-a-time model but, like HyPer's morsel-driven scheme, splits
// every column into fixed-size row ranges ("morsels") and fans the hot
// operators — the one morsel row loop under every row-wise SELECT stage
// (forMorsels), partitioned hash aggregation, hash-join probe, sorting, and
// merge-table part materialization — across a shared worker pool. Two
// invariants make the parallel path safe to ship:
//
//  1. Determinism: morsel decomposition depends only on the table size and
//     the DB's morsel size, and every combine step (morsel-output
//     concatenation, partial-aggregate merging, join-output stitching)
//     folds morsel results in morsel-index order. Results are therefore
//     bit-identical at parallelism 1, 2, and NumCPU — the parallelism
//     degree only changes how many morsels are in flight, never the
//     reduction order. The equivalence property test pins this.
//  2. Work conservation: the issuing goroutine always executes morsels
//     itself; pool workers are opportunistic helpers. A saturated (or
//     size-1) pool degrades to plain serial execution instead of
//     deadlocking or queueing unboundedly.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMorselSize is the number of rows per morsel. It is a multiple of
// 64 so that sliced validity bitmaps stay word-aligned (zero-copy views).
const DefaultMorselSize = 4096

// defaultParallelism is the degree new DBs inherit (NumCPU unless
// overridden via SetDefaultParallelism, e.g. by mipd -engine-parallelism).
var defaultParallelism atomic.Int32

func init() {
	defaultParallelism.Store(int32(runtime.NumCPU()))
}

// DefaultParallelism returns the process-wide default degree for new DBs.
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// SetDefaultParallelism sets the process-wide default degree for DBs
// created afterwards (n < 1 resets to NumCPU). It also grows the shared
// worker pool so the requested degree can actually be served.
func SetDefaultParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	defaultParallelism.Store(int32(n))
	enginePool.grow(n - 1)
}

// workerPool is the shared, process-wide pool that executes morsel tasks
// for every DB. Workers block on the task channel when idle; submission is
// non-blocking, so a busy pool simply means the issuing goroutine runs
// more morsels itself.
type workerPool struct {
	mu      sync.Mutex
	tasks   chan func()
	started int
}

var enginePool = &workerPool{tasks: make(chan func())}

// grow ensures at least n workers are running (capped only by demand; the
// default is NumCPU-1 helpers, the issuing goroutine being the Nth).
func (p *workerPool) grow(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.started < n {
		p.started++
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
}

// trySubmit hands f to an idle worker; it reports false (without blocking)
// when every worker is busy.
func (p *workerPool) trySubmit(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

// PoolWorkers reports how many shared pool workers are running (testing
// and observability hook).
func PoolWorkers() int {
	enginePool.mu.Lock()
	defer enginePool.mu.Unlock()
	return enginePool.started
}

// ExecContext carries one statement's execution configuration: the
// parallelism degree (max morsels in flight) and the morsel size. Operators
// receive it alongside the statement. A nil ExecContext means serial
// execution with the default morsel size.
type ExecContext struct {
	// Parallelism is the maximum number of morsels processed concurrently
	// (the issuing goroutine plus pool helpers). 1 = serial.
	Parallelism int
	// MorselSize is the row-range length tables are split into. It must be
	// a multiple of 64 (bitmap word alignment); NewDB enforces this.
	MorselSize int
	// Ctx, when non-nil, carries the statement's cancellation signal
	// (explicit kill, deadline, memory ceiling). Morsel loops poll it at
	// batch boundaries; parallelFor aborts in-flight morsels.
	Ctx context.Context
	// Acct, when non-nil, receives coarse per-operator memory charges.
	Acct *MemAccountant
	// QueryDeadline, when positive, bounds every statement's wall time.
	QueryDeadline time.Duration
	// QueryMemLimit, when positive, caps a statement's accounted live bytes.
	QueryMemLimit int64
	// NoAccounting skips registration, cancellation contexts and memory
	// accounting (the benchmark harness measures this off path).
	NoAccounting bool
	// NoJoinReorder pins multi-way joins to their written order. The
	// planner's reordering is provably result-identical, so this is an
	// escape hatch and the lever the equivalence tests compare against.
	NoJoinReorder bool
	// SpillDir, when non-empty, is the base directory for spill run files.
	// Combined with a positive QueryMemLimit it turns the memory ceiling
	// into a soft budget: hash join and aggregate shed partitions to disk
	// past the budget instead of being cancelled with ErrQueryMemLimit.
	SpillDir string

	query *queryHandle  // active-registry handle; nil when unregistered
	spill *spillSession // per-query spill dir manager; nil = spilling off
	plan  *planEntry    // plan-cache entry for this statement; nil = uncached
}

// spillEnabled reports whether this statement may shed operator state to
// disk (a spill dir is configured, governance is on, and a budget is set).
func (ec *ExecContext) spillEnabled() bool {
	return ec != nil && ec.spill != nil
}

// overBudget reports whether accounted live bytes currently exceed the
// soft budget. Only meaningful when spillEnabled.
func (ec *ExecContext) overBudget() bool {
	return ec != nil && ec.Acct.OverLimit()
}

// budget returns the statement's memory budget in bytes (0 = unlimited).
func (ec *ExecContext) budget() int64 {
	if ec == nil {
		return 0
	}
	return ec.QueryMemLimit
}

// addSpill tallies run-file bytes written and partitions spilled on the
// live registry record; the statement's finish copies the totals onto its
// record, from where they reach the process metrics.
func (ec *ExecContext) addSpill(bytes, parts int64) {
	if ec == nil || ec.query == nil {
		return
	}
	ec.query.spillBytes.Add(bytes)
	ec.query.spillParts.Add(parts)
}

// interrupted reports the statement's termination cause (cancellation,
// deadline, memory ceiling), or nil while it may keep running. Checked at
// morsel and operator boundaries, never per row.
func (ec *ExecContext) interrupted() error {
	if ec == nil || ec.Ctx == nil {
		return nil
	}
	select {
	case <-ec.Ctx.Done():
		if cause := context.Cause(ec.Ctx); cause != nil {
			return cause
		}
		return ec.Ctx.Err()
	default:
		return nil
	}
}

// charge accounts n freshly allocated bytes against the query.
func (ec *ExecContext) charge(n int64) {
	if ec != nil {
		ec.Acct.Charge(n)
	}
}

// release returns n bytes of a freed transient structure.
func (ec *ExecContext) release(n int64) {
	if ec != nil {
		ec.Acct.Release(n)
	}
}

// addRows tallies input rows on the live registry record.
func (ec *ExecContext) addRows(n int) {
	if ec != nil && ec.query != nil {
		ec.query.addRows(int64(n))
	}
}

// setOperator records the operator the query is currently in.
func (ec *ExecContext) setOperator(op string) {
	if ec != nil {
		ec.query.setOp(op)
	}
}

// serial returns a copy of ec whose morsel loops run on the calling
// goroutine, in morsel order.
func (ec *ExecContext) serial() *ExecContext {
	c := *ec
	c.Parallelism = 1
	return &c
}

func (ec *ExecContext) parallelism() int {
	if ec == nil || ec.Parallelism < 1 {
		return 1
	}
	return ec.Parallelism
}

func (ec *ExecContext) morselSize() int {
	if ec == nil || ec.MorselSize < 64 {
		return DefaultMorselSize
	}
	return ec.MorselSize
}

// morsel is one contiguous row range [lo, hi).
type morsel struct{ lo, hi int }

// morselsOf splits n rows into fixed-size ranges. The decomposition
// depends only on n and the morsel size — never on the parallelism degree
// — which is what makes parallel results bit-identical to serial ones.
func (ec *ExecContext) morselsOf(n int) []morsel {
	size := ec.morselSize()
	out := make([]morsel, 0, ec.numMorsels(n))
	for lo := 0; lo < n; lo += size {
		out = append(out, morsel{lo, min(lo+size, n)})
	}
	return out
}

// numMorsels is len(morselsOf(n)).
func (ec *ExecContext) numMorsels(n int) int {
	if n <= 0 {
		return 0
	}
	size := ec.morselSize()
	return (n + size - 1) / size
}

// degreeFor reports the degree actually used over n tasks: the configured
// parallelism capped by the task count.
func (ec *ExecContext) degreeFor(tasks int) int {
	d := ec.parallelism()
	if tasks < d {
		d = tasks
	}
	if d < 1 {
		d = 1
	}
	return d
}

// parallelFor runs fn(i) for every i in [0, n), using up to
// ec.Parallelism-1 shared pool workers plus the calling goroutine. Tasks
// are claimed from an atomic counter (morsel-driven work stealing), so
// scheduling order is nondeterministic but callers must only write to
// task-indexed slots; combining happens after return, in index order.
// The first error cancels remaining tasks; a worker panic is re-raised on
// the calling goroutine so it propagates like serial execution.
func (ec *ExecContext) parallelFor(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	degree := ec.degreeFor(n)
	if degree == 1 {
		for i := 0; i < n; i++ {
			if err := ec.interrupted(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	enginePool.grow(ec.parallelism() - 1)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		panicMu  sync.Mutex
		panicked any
	)
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
				failed.Store(true)
			}
		}()
		for {
			i := int(next.Add(1) - 1)
			if i >= n || failed.Load() {
				return
			}
			if err := ec.interrupted(); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
			if err := fn(i); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for h := 0; h < degree-1; h++ {
		wg.Add(1)
		if !enginePool.trySubmit(func() {
			defer wg.Done()
			body()
		}) {
			wg.Done()
			break // pool saturated: the caller picks up the slack
		}
	}
	body()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// --- parallel operator helpers ---

// forMorsels is the engine's one morsel row loop: it runs fn over every
// morsel of t, up to ec.Parallelism at a time. With a WHERE, each morsel
// first selects and gathers its matching rows — the filter runs fused
// inside the loop, never materializing a filtered copy of t — and sel holds
// the surviving rows' indexes within the morsel (nil without a WHERE).
// Morsels always decompose the unfiltered input, so what a morsel holds
// never depends on the parallelism degree. fnode (optional) accrues the
// filter's rows out and morsel count, and ends up holding the filter's
// share of the loop's wall time.
func (ec *ExecContext) forMorsels(t *Table, where Expr, fnode *PlanNode, fn func(i int, m morsel, part *Table, sel []int32) error) error {
	ms := ec.morselsOf(t.NumRows())
	if len(ms) == 0 && where != nil {
		// No morsel will evaluate the predicate; evaluate it over the empty
		// input so its errors surface like they do over a non-empty one.
		_, err := FilterSel(where, t)
		return err
	}
	var busy atomic.Int64 // time spent inside morsels, filter included
	start := time.Now()
	err := ec.parallelFor(len(ms), func(i int) error {
		var t0 time.Time
		if fnode != nil {
			t0 = time.Now()
		}
		part, sel, err := filterPart(where, t.Slice(ms[i].lo, ms[i].hi), fnode)
		if err == nil {
			err = fn(i, ms[i], part, sel)
		}
		if fnode != nil {
			busy.Add(time.Since(t0).Nanoseconds())
		}
		return err
	})
	if fnode != nil && err == nil && busy.Load() > 0 {
		// fnode.Nanos is the filter's part of the time the workers spent in
		// morsels, however many workers ran and however the morsels fell
		// among them; the same fraction of the loop's wall time is the
		// filter's, the rest the hosting stage's.
		wall := float64(time.Since(start).Nanoseconds())
		fnode.Nanos = int64(wall * float64(fnode.Nanos) / float64(busy.Load()))
	}
	return err
}

// selectPart evaluates a WHERE over one batch of rows: the indexes of the
// matching rows within the batch. fnode (optional) accrues the rows out,
// the batch and the time taken.
func selectPart(where Expr, part *Table, fnode *PlanNode) ([]int32, error) {
	t0 := time.Now()
	sel, err := FilterSel(where, part)
	if err == nil && fnode != nil {
		atomic.AddInt64(&fnode.RowsOut, int64(len(sel)))
		atomic.AddInt64(&fnode.Nanos, time.Since(t0).Nanoseconds())
		fnode.AddMorsels(1)
	}
	return sel, err
}

// filterPart applies a fused WHERE to one batch of rows: the matching rows
// gathered, plus their indexes within the batch. A nil predicate passes the
// batch through (zero-copy, nil sel).
func filterPart(where Expr, part *Table, fnode *PlanNode) (*Table, []int32, error) {
	if where == nil {
		return part, nil, nil
	}
	sel, err := selectPart(where, part, fnode)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	part = part.Gather(sel)
	if fnode != nil {
		atomic.AddInt64(&fnode.Nanos, time.Since(t0).Nanoseconds())
	}
	return part, sel, nil
}

// mapMorsels runs forMorsels with a table-valued stage function and
// concatenates the morsel outputs (all of the given schema) in morsel
// order. node (optional) counts the morsels the stage processed.
func (ec *ExecContext) mapMorsels(t *Table, where Expr, fnode *PlanNode, schema Schema, node *PlanNode, fn func(part *Table) (*Table, error)) (*Table, error) {
	parts := make([]*Table, ec.numMorsels(t.NumRows()))
	err := ec.forMorsels(t, where, fnode, func(i int, _ morsel, part *Table, _ []int32) error {
		out, err := fn(part)
		parts[i] = out
		node.AddMorsels(1)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ec.concatTables(schema, parts)
}

// mapRows is mapMorsels for a row-wise stage function: one whose output
// over a table is the concatenation of its outputs over the table's
// morsels. Without a WHERE the loop would only slice the input and copy
// the outputs back together, so fn runs once over the whole table: column
// references stay zero-copy and nothing is charged.
func (ec *ExecContext) mapRows(t *Table, where Expr, fnode *PlanNode, schema Schema, node *PlanNode, fn func(part *Table) (*Table, error)) (*Table, error) {
	if where == nil {
		return fn(t)
	}
	return ec.mapMorsels(t, where, fnode, schema, node, fn)
}

// filterTable materializes the rows of t matching pred. Nothing follows the
// filter inside the loop, so the morsels only select: their selections,
// stitched in morsel order, gather the surviving rows once. node (optional)
// accrues the filter's stats.
func (ec *ExecContext) filterTable(t *Table, pred Expr, node *PlanNode) (*Table, error) {
	ms := ec.morselsOf(t.NumRows())
	if len(ms) == 0 {
		ms = []morsel{{}} // evaluate pred over the empty input: its errors must surface
	}
	sels := make([][]int32, len(ms))
	err := ec.parallelFor(len(ms), func(i int) error {
		sel, err := selectPart(pred, t.Slice(ms[i].lo, ms[i].hi), node)
		for j := range sel {
			sel[j] += int32(ms[i].lo)
		}
		sels[i] = sel
		return err
	})
	if err != nil {
		return nil, err
	}
	return ec.gather(t, slices.Concat(sels...)), nil
}

// gather materializes t.Gather(sel) with the columns fanned out across the
// pool (each output column is independent).
func (ec *ExecContext) gather(t *Table, sel []int32) *Table {
	if ec.degreeFor(t.NumCols()) == 1 || len(sel) < ec.morselSize() {
		out := t.Gather(sel)
		ec.charge(out.ByteSize())
		return out
	}
	cols := make([]*Vector, t.NumCols())
	_ = ec.parallelFor(len(cols), func(i int) error {
		cols[i] = t.Col(i).Gather(sel)
		return nil
	})
	out := &Table{schema: t.schema, cols: cols}
	ec.charge(out.ByteSize())
	return out
}

// concatTables unions the rows of every part (schemas must match) into one
// freshly materialized table, column-parallel: each output column is
// assembled by one task, concatenating the part payloads in part order.
// This replaces the row-at-a-time Table.Append fan-in on the merge path.
func (ec *ExecContext) concatTables(schema Schema, parts []*Table) (*Table, error) {
	total := 0
	for _, p := range parts {
		if !schema.Equal(p.Schema()) {
			return nil, fmt.Errorf("engine: cannot append table with schema %v to %v", p.Schema().Names(), schema.Names())
		}
		total += p.NumRows()
	}
	cols := make([]*Vector, len(schema))
	err := ec.parallelFor(len(schema), func(j int) error {
		vs := make([]*Vector, len(parts))
		for i, p := range parts {
			vs[i] = p.Col(j)
		}
		cols[j] = concatVectors(schema[j].Type, vs, total)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return &Table{schema: schema}, nil
	}
	out := &Table{schema: schema, cols: cols}
	ec.charge(out.ByteSize())
	return out, nil
}

// concatVectors concatenates parts in order into payloads sized for total
// rows up front. It is the appendVector fold, so dictionary codes and NULLs
// come out exactly as in a union grown part by part.
func concatVectors(t Type, parts []*Vector, total int) *Vector {
	out := NewVector(t)
	switch t {
	case Float64:
		out.f64 = make([]float64, 0, total)
	case Int64:
		out.i64 = make([]int64, 0, total)
	case Bool:
		out.b = make([]bool, 0, total)
	case String:
		out.codes = make([]int32, 0, total)
	}
	for _, p := range parts {
		appendVector(out, p)
	}
	return out
}
