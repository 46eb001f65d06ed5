package smpc

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
	"mip/internal/stats"
)

// SMPC metrics, registered eagerly for GET /metrics.
var (
	smpcImports = obs.GetCounter("mip_smpc_imports_total",
		"Secret vectors imported into SMPC clusters.")
	smpcShares = obs.GetCounter("mip_smpc_shares_exchanged_total",
		"Individual secret shares created across SMPC nodes.")
	smpcMessages = obs.GetCounter("mip_smpc_messages_total",
		"Simulated messages between workers, SMPC nodes and the master.")
	smpcBytes = obs.GetCounter("mip_smpc_bytes_total",
		"Simulated bytes between workers, SMPC nodes and the master.")
	smpcJobs = obs.GetGauge("mip_smpc_pending_jobs",
		"SMPC jobs holding imported shares not yet aggregated.")
	smpcImportSeconds = obs.GetHistogram("mip_smpc_import_seconds",
		"Latency of one worker's secret-share import into an SMPC cluster.", nil)
)

func smpcRoundSeconds(op Op) *obs.Histogram {
	return obs.GetHistogram("mip_smpc_round_seconds",
		"Latency of one SMPC aggregation round.", nil,
		obs.Label{Key: "op", Value: op.String()})
}

// Scheme selects the secret-sharing scheme, the paper's security/efficiency
// trade-off knob.
type Scheme int

// Supported schemes.
const (
	// FullThreshold is SPDZ-style additive sharing with MACs: secure with
	// abort against an active-malicious majority, slower.
	FullThreshold Scheme = iota
	// ShamirScheme is (t, n) polynomial sharing: honest-but-curious, fast.
	ShamirScheme
)

// String names the scheme.
func (s Scheme) String() string {
	if s == FullThreshold {
		return "full-threshold"
	}
	return "shamir"
}

// Op is an aggregation operation the SMPC engine supports (the paper lists
// sum, multiplication, min/max and disjoint union).
type Op int

// Supported aggregation operations.
const (
	OpSum Op = iota
	OpProduct
	OpMin
	OpMax
	OpUnion
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProduct:
		return "product"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpUnion:
		return "union"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// NoiseKind selects in-protocol DP noise (the engine "supports injecting
// Laplacian and Gaussian noise during the SMPC to the result").
type NoiseKind int

// Noise kinds.
const (
	NoNoise NoiseKind = iota
	LaplaceNoise
	GaussianNoise
)

// Noise configures in-protocol noise addition.
type Noise struct {
	Kind  NoiseKind
	Scale float64 // Laplace scale b, or Gaussian σ
}

// Config parameterizes a cluster.
type Config struct {
	Scheme    Scheme
	Nodes     int  // number of SMPC nodes
	Threshold int  // Shamir t (reconstruction needs t+1); ignored for FT
	FracBits  uint // fixed-point precision (0 = default)
	Seed      int64
}

// NetStats counts simulated traffic between workers, SMPC nodes and the
// master — the quantity the E5/E6 benchmarks report alongside latency.
type NetStats struct {
	Messages int
	Bytes    int64
}

// netCounters is the cluster's running NetStats, updated without a lock.
type netCounters struct {
	msgs, bytes atomic.Int64
}

func (n *netCounters) add(msgs int, bytes int64) {
	n.msgs.Add(int64(msgs))
	n.bytes.Add(bytes)
	smpcMessages.Add(int64(msgs))
	smpcBytes.Add(bytes)
}

// Cluster is the SMPC engine: a set of computing nodes plus (in FT mode)
// the offline-phase dealer. Jobs are identified by the caller-provided
// global unique identifier, matching the paper's asynchronous flow.
type Cluster struct {
	cfg    Config
	codec  Codec
	dealer *Dealer // FT only

	rngMu sync.Mutex
	rng   *stats.RNG

	net netCounters

	// mu guards only the jobs map and each job's slices: shares are built
	// before it is taken and aggregated after the job is removed.
	mu   sync.Mutex
	jobs map[string]*job
}

// job accumulates per-worker share contributions for one computation.
// Dimensions may differ per worker; element-wise ops (sum, product,
// min/max) require them to be equal, the disjoint union does not.
type job struct {
	dims    []int
	ft      [][][]AuthShare   // [worker][node][elem]
	shamir  [][][]ShamirShare // [worker][node][elem] (each elem share at node's x)
	workers []string
}

// commonDim returns the shared dimension for element-wise ops.
func (j *job) commonDim() (int, error) {
	if len(j.dims) == 0 {
		return 0, fmt.Errorf("smpc: job has no inputs")
	}
	d := j.dims[0]
	for _, x := range j.dims[1:] {
		if x != d {
			return 0, fmt.Errorf("smpc: element-wise op over ragged inputs (%v)", j.dims)
		}
	}
	return d, nil
}

// NewCluster builds an SMPC cluster. Shamir threshold defaults to
// floor((n−1)/2), the largest honest-majority threshold.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("smpc: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Scheme == ShamirScheme {
		if cfg.Threshold == 0 {
			cfg.Threshold = (cfg.Nodes - 1) / 2
		}
		if cfg.Threshold < 1 || 2*cfg.Threshold >= cfg.Nodes {
			return nil, fmt.Errorf("smpc: Shamir needs 1 <= t < n/2, got t=%d n=%d", cfg.Threshold, cfg.Nodes)
		}
	}
	c := &Cluster{
		cfg:   cfg,
		codec: NewCodec(cfg.FracBits),
		rng:   stats.NewRNG(cfg.Seed + 7919),
		jobs:  make(map[string]*job),
	}
	if cfg.Scheme == FullThreshold {
		c.dealer = NewDealer(cfg.Nodes)
	}
	return c, nil
}

// Codec exposes the fixed-point codec in use.
func (c *Cluster) Codec() Codec { return c.codec }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NetStats returns cumulative simulated traffic.
func (c *Cluster) NetStats() NetStats {
	return NetStats{Messages: int(c.net.msgs.Load()), Bytes: c.net.bytes.Load()}
}

// ResetNetStats zeroes the traffic counters.
func (c *Cluster) ResetNetStats() {
	c.net.msgs.Store(0)
	c.net.bytes.Store(0)
}

// ImportSecret secret-shares a worker's local vector into the cluster under
// the given job id. For Shamir the worker computes the polynomial shares
// itself and sends one point to each node over a secure channel. For FT the
// import follows the authenticated-input mechanism (the paper cites
// SCALE-MAMBA's importation procedure): the offline functionality
// authenticates the input with MAC shares.
//
// A value the fixed-point codec cannot represent (NaN, or a magnitude past
// Codec.MaxAbs) fails the import and nothing is added to the job: sharing
// a clamped value would make the secure result silently differ from the
// plain one. Imports from different workers and jobs run in parallel; the
// cluster lock is held only to register the finished shares.
func (c *Cluster) ImportSecret(jobID, workerID string, vals []float64) error {
	start := time.Now()
	n, m := c.cfg.Nodes, len(vals)
	var ft [][]AuthShare
	var sh [][]ShamirShare
	shareBytes := 16 // FT: value + MAC share
	if c.cfg.Scheme == FullThreshold {
		back, err := c.dealer.shareEach(m, c.codec.encoder(vals))
		if err != nil {
			return fmt.Errorf("smpc: import into job %q from worker %q: %w", jobID, workerID, err)
		}
		ft = byNode(back, n, m)
	} else {
		back, err := shamirEach(m, c.cfg.Threshold, n, c.codec.encoder(vals))
		if err != nil {
			return fmt.Errorf("smpc: import into job %q from worker %q: %w", jobID, workerID, err)
		}
		sh = byNode(back, n, m)
		shareBytes = 8
	}

	c.mu.Lock()
	j := c.jobs[jobID]
	if j == nil {
		j = &job{}
		c.jobs[jobID] = j
		smpcJobs.Inc()
	}
	j.dims = append(j.dims, m)
	j.workers = append(j.workers, workerID)
	if ft != nil {
		j.ft = append(j.ft, ft)
	} else {
		j.shamir = append(j.shamir, sh)
	}
	c.mu.Unlock()

	smpcImports.Inc()
	smpcShares.Add(int64(n * m))
	// One message per node carrying its shares of every element.
	c.net.add(n, int64(n*m*shareBytes))
	smpcImportSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// take removes a job from the cluster and returns it (nil when unknown).
func (c *Cluster) take(jobID string) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[jobID]
	if j != nil {
		delete(c.jobs, jobID)
		smpcJobs.Dec()
	}
	return j
}

// Discard drops whatever shares were imported under jobID without
// aggregating them — the cleanup for a step that failed after some workers
// had imported. Unknown jobs are ignored.
func (c *Cluster) Discard(jobID string) { c.take(jobID) }

// Workers lists the workers that have contributed to a job.
func (c *Cluster) Workers(jobID string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[jobID]; j != nil {
		return append([]string(nil), j.workers...)
	}
	return nil
}

// Aggregate runs the requested operation over every vector imported under
// jobID, optionally injecting noise inside the protocol, and returns the
// cleartext result to the caller (the Master node). The job is consumed.
func (c *Cluster) Aggregate(jobID string, op Op, noise Noise) ([]float64, error) {
	j := c.take(jobID)
	if j == nil {
		return nil, fmt.Errorf("smpc: unknown job %q", jobID)
	}
	if len(j.workers) == 0 {
		return nil, fmt.Errorf("smpc: job %q has no inputs", jobID)
	}
	start := time.Now()
	defer func() { smpcRoundSeconds(op).Observe(time.Since(start).Seconds()) }()
	switch op {
	case OpSum:
		return c.aggregateSum(j, noise)
	case OpProduct:
		return c.aggregateProduct(j)
	case OpMin, OpMax:
		return c.aggregateMinMax(j, op == OpMax)
	case OpUnion:
		return c.aggregateUnion(j)
	}
	return nil, fmt.Errorf("smpc: unsupported op %v", op)
}

// noiseShares draws each node's additive noise contribution so that the
// node contributions sum to the target distribution: Gaussian splits the
// variance; Laplace uses its infinite divisibility into Gamma differences.
func (c *Cluster) noiseShares(noise Noise, dim int) [][]float64 {
	if noise.Kind == NoNoise || noise.Scale == 0 {
		return nil
	}
	n := c.cfg.Nodes
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	for e := 0; e < dim; e++ {
		for i := 0; i < n; i++ {
			switch noise.Kind {
			case GaussianNoise:
				out[i][e] = c.rng.Normal(0, noise.Scale/math.Sqrt(float64(n)))
			case LaplaceNoise:
				out[i][e] = c.rng.Gamma(1/float64(n), noise.Scale) - c.rng.Gamma(1/float64(n), noise.Scale)
			}
		}
	}
	return out
}

func (c *Cluster) aggregateSum(j *job, noise Noise) ([]float64, error) {
	dim, err := j.commonDim()
	if err != nil {
		return nil, err
	}
	ns := c.noiseShares(noise, dim)
	switch c.cfg.Scheme {
	case FullThreshold:
		// Each node locally sums its shares across workers (into the first
		// worker's: the job is consumed) and adds its noise share, then all
		// elements are opened with MACCheck.
		nodeSums := j.ft[0]
		add := func(w [][]AuthShare) {
			for node, acc := range nodeSums {
				for e, s := range w[node] {
					acc[e] = AuthShare{Val: Add(acc[e].Val, s.Val), MAC: Add(acc[e].MAC, s.MAC)}
				}
			}
		}
		for _, w := range j.ft[1:] {
			add(w)
		}
		// Nodes authenticate and add their noise via the offline
		// functionality, preserving the MAC invariant.
		for node := range ns {
			back, err := c.dealer.shareEach(dim, c.codec.encoder(ns[node]))
			if err != nil {
				return nil, fmt.Errorf("smpc: noise share of node %d: %w", node, err)
			}
			add(byNode(back, c.cfg.Nodes, dim))
			c.net.add(c.cfg.Nodes, int64(c.cfg.Nodes*dim*16))
		}
		out := make([]float64, dim)
		alpha := c.alphaShares()
		shares := make([]AuthShare, c.cfg.Nodes)
		for e := 0; e < dim; e++ {
			for node := range nodeSums {
				shares[node] = nodeSums[node][e]
			}
			v, err := Open(shares, alpha)
			if err != nil {
				return nil, err
			}
			out[e] = c.codec.Decode(v)
		}
		c.net.add(c.cfg.Nodes*2, int64(c.cfg.Nodes*dim*16*2)) // broadcast of value+MAC sigma rounds
		return out, nil
	default: // Shamir
		nodeSums := j.shamir[0]
		add := func(w [][]ShamirShare) {
			for node, acc := range nodeSums {
				for e, s := range w[node] {
					acc[e].Y = Add(acc[e].Y, s.Y)
				}
			}
		}
		for _, w := range j.shamir[1:] {
			add(w)
		}
		for node := range ns {
			back, err := shamirEach(dim, c.cfg.Threshold, c.cfg.Nodes, c.codec.encoder(ns[node]))
			if err != nil {
				return nil, fmt.Errorf("smpc: noise share of node %d: %w", node, err)
			}
			add(byNode(back, c.cfg.Nodes, dim))
			c.net.add(c.cfg.Nodes, int64(c.cfg.Nodes*dim*8))
		}
		out := make([]float64, dim)
		k := c.cfg.Threshold + 1
		lag := lagrangeAtZero(k)
		for e := 0; e < dim; e++ {
			var v Fe
			for i := 0; i < k; i++ {
				v = Add(v, Mul(nodeSums[i][e].Y, lag[i]))
			}
			out[e] = c.codec.Decode(v)
		}
		c.net.add(k, int64(k*dim*8))
		return out, nil
	}
}

// lagrangeAtZero precomputes Lagrange coefficients for points 1..k
// evaluated at 0 (shared across all vector elements — the amortization
// that keeps Shamir fast).
func lagrangeAtZero(k int) []Fe {
	out := make([]Fe, k)
	for i := 1; i <= k; i++ {
		num, den := Fe(1), Fe(1)
		for j := 1; j <= k; j++ {
			if j == i {
				continue
			}
			num = Mul(num, Neg(Fe(uint64(j))))
			den = Mul(den, Sub(Fe(uint64(i)), Fe(uint64(j))))
		}
		out[i-1] = Mul(num, Inv(den))
	}
	return out
}

func (c *Cluster) alphaShares() []Fe {
	out := make([]Fe, c.cfg.Nodes)
	for i := range out {
		out[i] = c.dealer.AlphaShare(i)
	}
	return out
}

// aggregateProduct computes the element-wise product across workers.
// FT consumes one Beaver triple per multiplication (with two authenticated
// openings each); Shamir multiplies shares locally and opens the degree-2t
// sharing with 2t+1 shares.
func (c *Cluster) aggregateProduct(j *job) ([]float64, error) {
	dim, err := j.commonDim()
	if err != nil {
		return nil, err
	}
	nWorkers := len(j.workers)
	out := make([]float64, dim)
	switch c.cfg.Scheme {
	case FullThreshold:
		alpha := c.alphaShares()
		for e := 0; e < dim; e++ {
			// Fold workers left to right. After each Beaver multiplication
			// the product carries twice the fixed-point scale, so it is
			// opened (with MACCheck), rescaled, and re-shared through the
			// offline functionality — a simplified truncation round that
			// bounds the scale at any fold depth.
			cur := c.columnFT(j, 0, e)
			if nWorkers == 1 {
				v, err := Open(cur, alpha)
				if err != nil {
					return nil, err
				}
				out[e] = c.codec.Decode(v)
				continue
			}
			var acc float64
			for w := 1; w < nWorkers; w++ {
				next := c.columnFT(j, w, e)
				triples := c.dealer.Triple()
				c.net.add(3*c.cfg.Nodes, int64(3*c.cfg.Nodes*16)) // triple distribution
				c.net.add(2*c.cfg.Nodes, int64(2*c.cfg.Nodes*16)) // d/e openings
				prod, err := Multiply(cur, next, triples, alpha)
				if err != nil {
					return nil, err
				}
				v, err := Open(prod, alpha)
				if err != nil {
					return nil, err
				}
				acc = c.codec.DecodeProduct(v)
				if w < nWorkers-1 {
					cur = c.dealer.Share(c.codec.Encode(acc))
					c.net.add(c.cfg.Nodes, int64(c.cfg.Nodes*16))
				}
			}
			out[e] = acc
		}
		return out, nil
	default:
		if nWorkers > 1 && c.cfg.Threshold*2 >= c.cfg.Nodes {
			return nil, fmt.Errorf("smpc: Shamir product needs 2t < n")
		}
		// Fold two operands at a time: multiply shares locally (degree
		// rises to 2t), reconstruct the pairwise product from 2t+1 points,
		// and re-share the intermediate — a simplified BGW degree
		// reduction. Raw worker inputs are never opened; only fold
		// intermediates (and the final product, which is the output) are.
		for e := 0; e < dim; e++ {
			if nWorkers == 1 {
				out[e] = c.codec.Decode(c.openShamirColumn(j, 0, e, c.cfg.Threshold+1))
				continue
			}
			cur := make([]ShamirShare, c.cfg.Nodes)
			for node := 0; node < c.cfg.Nodes; node++ {
				cur[node] = j.shamir[0][node][e]
			}
			var acc float64
			for w := 1; w < nWorkers; w++ {
				prod := make([]ShamirShare, c.cfg.Nodes)
				for node := 0; node < c.cfg.Nodes; node++ {
					prod[node] = ShamirShare{
						X: uint64(node + 1),
						Y: Mul(cur[node].Y, j.shamir[w][node][e].Y),
					}
				}
				k := 2*c.cfg.Threshold + 1
				v, err := ShamirReconstruct(prod, k-1)
				if err != nil {
					return nil, err
				}
				acc = c.codec.DecodeProduct(v)
				c.net.add(k, int64(k*8))
				if w < nWorkers-1 {
					cur = c.reshare(acc)
				}
			}
			out[e] = acc
		}
		return out, nil
	}
}

// reshare produces a fresh Shamir sharing of a (decoded) value, modeling
// the degree-reduction re-sharing round.
func (c *Cluster) reshare(v float64) []ShamirShare {
	c.net.add(c.cfg.Nodes, int64(c.cfg.Nodes*8))
	return ShamirShareSecret(c.codec.Encode(v), c.cfg.Threshold, c.cfg.Nodes)
}

func (c *Cluster) columnFT(j *job, worker, elem int) []AuthShare {
	out := make([]AuthShare, c.cfg.Nodes)
	for node := 0; node < c.cfg.Nodes; node++ {
		out[node] = j.ft[worker][node][elem]
	}
	return out
}

func (c *Cluster) openShamirColumn(j *job, worker, elem, k int) Fe {
	shares := make([]ShamirShare, 0, k)
	for node := 0; node < k; node++ {
		shares = append(shares, j.shamir[worker][node][elem])
	}
	v, err := ShamirReconstruct(shares, k-1)
	if err != nil {
		panic(err) // internal: k points always available
	}
	c.net.add(k, int64(k*8))
	return v
}

// aggregateMinMax computes the element-wise min (or max) across workers via
// a fold of masked comparisons: each comparison multiplies the difference
// by a fresh random positive mask and opens only the masked value, whose
// sign equals the sign of the difference. The comparison outcome (not the
// magnitudes) becomes public — the standard trade-off the paper alludes to
// when noting comparisons are where SMPC overhead concentrates.
func (c *Cluster) aggregateMinMax(j *job, wantMax bool) ([]float64, error) {
	dim, err := j.commonDim()
	if err != nil {
		return nil, err
	}
	nWorkers := len(j.workers)
	out := make([]float64, dim)
	switch c.cfg.Scheme {
	case FullThreshold:
		alpha := c.alphaShares()
		for e := 0; e < dim; e++ {
			best := c.columnFT(j, 0, e)
			for w := 1; w < nWorkers; w++ {
				cand := c.columnFT(j, w, e)
				diff := SubShares(cand, best) // cand − best
				mask := c.dealer.RandomMask(20)
				triples := c.dealer.Triple()
				c.net.add(4*c.cfg.Nodes, int64(4*c.cfg.Nodes*16))
				masked, err := Multiply(diff, mask, triples, alpha)
				if err != nil {
					return nil, err
				}
				w2, err := Open(masked, alpha)
				if err != nil {
					return nil, err
				}
				// cand < best and we want min → cand wins;
				// cand > best and we want max → cand wins.
				negative := uint64(w2) > half
				if (negative && !wantMax) || (!negative && wantMax && w2 != 0) {
					best = cand
				}
			}
			v, err := Open(best, alpha)
			if err != nil {
				return nil, err
			}
			out[e] = c.codec.Decode(v)
		}
		return out, nil
	default:
		for e := 0; e < dim; e++ {
			bestW := 0
			for w := 1; w < nWorkers; w++ {
				// diff = cand − best, locally on each node's share.
				diff := make([]ShamirShare, c.cfg.Nodes)
				for node := 0; node < c.cfg.Nodes; node++ {
					diff[node] = ShamirShare{
						X: uint64(node + 1),
						Y: Sub(j.shamir[w][node][e].Y, j.shamir[bestW][node][e].Y),
					}
				}
				// Mask with a shared random positive value and open.
				c.rngMu.Lock()
				m := uint64(c.rng.Intn(1<<20-1) + 1)
				c.rngMu.Unlock()
				maskShares := ShamirShareSecret(Fe(m), c.cfg.Threshold, c.cfg.Nodes)
				prod := make([]ShamirShare, c.cfg.Nodes)
				for node := 0; node < c.cfg.Nodes; node++ {
					prod[node] = ShamirShare{X: uint64(node + 1), Y: Mul(diff[node].Y, maskShares[node].Y)}
				}
				k := 2*c.cfg.Threshold + 1
				v, err := ShamirReconstruct(prod, k-1)
				if err != nil {
					return nil, err
				}
				c.net.add(k+c.cfg.Nodes, int64((k+c.cfg.Nodes)*8))
				negative := uint64(v) > half
				if (negative && !wantMax) || (!negative && wantMax && v != 0) {
					bestW = w
				}
			}
			out[e] = c.codec.Decode(c.openShamirColumn(j, bestW, e, c.cfg.Threshold+1))
		}
		return out, nil
	}
}

// aggregateUnion opens every imported vector and returns the sorted
// distinct values — the disjoint-union primitive (used e.g. for the global
// set of Kaplan-Meier event times). Inputs are typically hashes or discrete
// time points; the set itself is the intended public output.
func (c *Cluster) aggregateUnion(j *job) ([]float64, error) {
	seen := map[float64]struct{}{}
	switch c.cfg.Scheme {
	case FullThreshold:
		alpha := c.alphaShares()
		for w := range j.ft {
			for e := 0; e < j.dims[w]; e++ {
				v, err := Open(c.columnFT(j, w, e), alpha)
				if err != nil {
					return nil, err
				}
				seen[c.codec.Decode(v)] = struct{}{}
			}
		}
	default:
		for w := range j.shamir {
			for e := 0; e < j.dims[w]; e++ {
				shares := make([]ShamirShare, c.cfg.Threshold+1)
				for node := 0; node <= c.cfg.Threshold; node++ {
					shares[node] = j.shamir[w][node][e]
				}
				v, err := ShamirReconstruct(shares, c.cfg.Threshold)
				if err != nil {
					return nil, err
				}
				seen[c.codec.Decode(v)] = struct{}{}
			}
		}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}
