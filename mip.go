// Package mip is the public face of this MIP (Medical Informatics
// Platform) reproduction: a privacy-preserving federated analytics
// platform in which patient data never leaves the hospital workers, local
// computation steps run inside an embedded columnar data engine, and only
// aggregates — plain or secret-shared through an SMPC cluster, optionally
// with differential-privacy noise — reach the master.
//
// Quick start:
//
//	p, err := mip.New(mip.Config{
//	    Workers: []mip.WorkerConfig{
//	        {ID: "hospital-a", Data: tableA},
//	        {ID: "hospital-b", Data: tableB},
//	    },
//	    Security: mip.SecuritySMPCShamir,
//	})
//	res, err := p.RunExperiment("linear_regression", mip.Request{
//	    Datasets: []string{"edsd"},
//	    Y:        []string{"minimentalstate"},
//	    X:        []string{"lefthippocampus"},
//	})
//
// See the examples/ directory for complete programs, including the paper's
// federated Alzheimer's-disease use case.
package mip

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"mip/internal/algorithms"
	"mip/internal/catalogue"
	"mip/internal/dp"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/queue"
	"mip/internal/smpc"

	apiserver "mip/internal/api"
)

// Re-exported request/response types: these are the values the public API
// traffics in.
type (
	// Request selects datasets, variables and parameters of an experiment.
	Request = algorithms.Request
	// Result is an experiment's output document.
	Result = algorithms.Result
	// AlgorithmSpec describes one available algorithm.
	AlgorithmSpec = algorithms.Spec
	// Table is the engine's columnar table (workers host one as "data").
	Table = engine.Table
	// Schema describes a table's columns.
	Schema = engine.Schema
	// Variable is a common-data-element descriptor.
	Variable = catalogue.Variable
	// Tolerance is the quorum policy for degraded (partial) aggregation.
	Tolerance = federation.Tolerance
)

// SecurityMode selects the aggregation path.
type SecurityMode int

// Security modes.
const (
	// SecurityOff ships plain aggregates to the master (the remote/merge
	// table path for non-sensitive deployments).
	SecurityOff SecurityMode = iota
	// SecuritySMPCShamir aggregates through Shamir secret sharing
	// (honest-but-curious threat model; fast).
	SecuritySMPCShamir
	// SecuritySMPCFullThreshold aggregates through SPDZ-style additive
	// sharing with MACs (active-malicious majority with abort; slower).
	SecuritySMPCFullThreshold
)

// NoiseKind selects in-protocol differential-privacy noise.
type NoiseKind int

// Noise kinds for secure aggregation.
const (
	NoiseNone NoiseKind = iota
	NoiseLaplace
	NoiseGaussian
)

// WorkerConfig describes one hospital node.
type WorkerConfig struct {
	ID string
	// Data is the harmonized data table (variables as columns plus a
	// "dataset" column). Use engine/etl loaders or synth generators to
	// produce one.
	Data *engine.Table
	// MinRows overrides the disclosure-control threshold (default 10).
	MinRows int
}

// Config assembles a platform. It is the one place a deployment tunes the
// engine and the federation; mipd fills it from its flags.
type Config struct {
	Workers  []WorkerConfig
	Security SecurityMode
	// NoiseKind/NoiseScale inject DP noise inside secure aggregation.
	NoiseKind  NoiseKind
	NoiseScale float64
	// PrivacyBudget, when positive, enables the (ε, δ) accountant: each
	// noisy experiment spends EpsilonPerRun (default 0.1) and RunExperiment
	// refuses to run once the budget is exhausted.
	PrivacyBudget float64
	PrivacyDelta  float64 // total δ budget (default 1e-5)
	EpsilonPerRun float64 // ε charged per noisy experiment (default 0.1)
	DeltaPerRun   float64 // δ charged per noisy experiment (default budget/100)
	// Seed drives the SMPC cluster's noise RNG.
	Seed int64
	// Tolerance lets plain-path experiments succeed on a partial quorum
	// when workers fail mid-step. The zero value keeps strict semantics
	// (every session worker must answer). SMPC aggregation never degrades.
	Tolerance Tolerance
	// EngineParallelism caps intra-query parallelism in each worker's
	// engine (0 = runtime.NumCPU()). Any value produces identical results;
	// it only trades query latency against CPU.
	EngineParallelism int
	// QueryDeadline, when positive, bounds every engine statement's wall
	// time; statements past it are cancelled with a deadline verdict.
	QueryDeadline time.Duration
	// QueryMemLimit, when positive, caps a statement's accounted live bytes;
	// statements over it are cancelled with a mem-limit verdict. With
	// QuerySpillDir set the limit becomes a soft budget instead: see below.
	QueryMemLimit int64
	// ResultCacheBytes enables the master's federated result cache with the
	// given byte budget (0 = disabled). Repeated identical aggregates are
	// served from memory while every worker's dataset versions still match.
	ResultCacheBytes int64
	// QuerySpillDir turns QueryMemLimit into a spill budget: hash joins and
	// grouped aggregates that would cross it partition their state to temp
	// files under this directory and keep running (bit-identical results),
	// instead of being cancelled. It requires a positive QueryMemLimit, and
	// New creates the directory.
	QuerySpillDir string
}

// Platform is a running MIP deployment (in-process topology).
type Platform struct {
	master  *federation.Master
	cluster *smpc.Cluster
	runner  *queue.Runner
	api     *apiserver.Server

	accountant *dp.Accountant // nil when no budget configured
	epsPerRun  float64
	deltaPer   float64
	noisy      bool
}

// New builds and starts a platform.
func New(cfg Config) (*Platform, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("mip: config needs at least one worker")
	}
	if cfg.QuerySpillDir != "" {
		if cfg.QueryMemLimit <= 0 {
			return nil, fmt.Errorf("mip: QuerySpillDir %q needs a positive QueryMemLimit (the spill budget)", cfg.QuerySpillDir)
		}
		if err := os.MkdirAll(cfg.QuerySpillDir, 0o700); err != nil {
			return nil, fmt.Errorf("mip: spill directory: %w", err)
		}
	}
	p := &Platform{}

	var cluster *smpc.Cluster
	if cfg.Security != SecurityOff {
		scheme := smpc.ShamirScheme
		if cfg.Security == SecuritySMPCFullThreshold {
			scheme = smpc.FullThreshold
		}
		var err error
		cluster, err = smpc.NewCluster(smpc.Config{Scheme: scheme, Nodes: 3, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		p.cluster = cluster
	}

	// Engine options shared by every worker DB and the master's transient
	// merge DBs, so a federated statement is governed at both ends.
	var masterOpts []engine.Option
	if cfg.EngineParallelism > 0 {
		masterOpts = append(masterOpts, engine.WithParallelism(cfg.EngineParallelism))
	}
	if cfg.QueryDeadline > 0 {
		masterOpts = append(masterOpts, engine.WithQueryDeadline(cfg.QueryDeadline))
	}
	if cfg.QueryMemLimit > 0 {
		masterOpts = append(masterOpts, engine.WithQueryMemLimit(cfg.QueryMemLimit))
	}
	if cfg.QuerySpillDir != "" {
		masterOpts = append(masterOpts, engine.WithSpillDir(cfg.QuerySpillDir))
	}

	var clients []federation.WorkerClient
	for _, wc := range cfg.Workers {
		if wc.Data == nil {
			return nil, fmt.Errorf("mip: worker %q has no data", wc.ID)
		}
		db := engine.NewDB(masterOpts...)
		db.RegisterTable(federation.DataTable, wc.Data)
		var opts []federation.WorkerOption
		if cluster != nil {
			opts = append(opts, federation.WithSMPC(cluster))
		}
		if wc.MinRows > 0 {
			opts = append(opts, federation.WithMinRows(wc.MinRows))
		}
		clients = append(clients, federation.NewWorker(wc.ID, db, opts...))
	}

	sec := federation.Security{UseSMPC: cfg.Security != SecurityOff}
	switch cfg.NoiseKind {
	case NoiseLaplace:
		sec.Noise = smpc.Noise{Kind: smpc.LaplaceNoise, Scale: cfg.NoiseScale}
	case NoiseGaussian:
		sec.Noise = smpc.Noise{Kind: smpc.GaussianNoise, Scale: cfg.NoiseScale}
	}
	masterOnly := []federation.MasterOption{
		federation.WithTolerance(cfg.Tolerance),
		federation.WithEngineOptions(masterOpts...),
	}
	if cfg.ResultCacheBytes > 0 {
		masterOnly = append(masterOnly, federation.WithResultCacheBytes(cfg.ResultCacheBytes))
	}
	master, err := federation.NewMaster(clients, cluster, sec, masterOnly...)
	if err != nil {
		return nil, err
	}
	p.master = master

	p.runner = queue.NewRunner(queue.NewBroker(0, 0), 2)
	p.api = apiserver.NewServer(master, catalogue.Default(), p.runner)

	p.noisy = cfg.NoiseKind != NoiseNone && cfg.NoiseScale > 0
	if cfg.PrivacyBudget > 0 {
		delta := cfg.PrivacyDelta
		if delta == 0 {
			delta = 1e-5
		}
		p.accountant = dp.NewAccountant(cfg.PrivacyBudget, delta)
		p.epsPerRun = cfg.EpsilonPerRun
		if p.epsPerRun == 0 {
			p.epsPerRun = 0.1
		}
		p.deltaPer = cfg.DeltaPerRun
		if p.deltaPer == 0 {
			p.deltaPer = delta / 100
		}
	}
	return p, nil
}

// PrivacySpent reports the accountant's cumulative (ε, δ); zeros when no
// budget is configured.
func (p *Platform) PrivacySpent() (eps, delta float64) {
	if p.accountant == nil {
		return 0, 0
	}
	return p.accountant.Spent()
}

// Close stops the platform's background workers immediately. In-flight
// experiments are abandoned; use Shutdown for a graceful drain.
func (p *Platform) Close() {
	if p.runner != nil {
		p.runner.Close()
	}
	if p.api != nil {
		p.api.AbortPending("platform closed")
	}
	if p.master != nil {
		p.master.Close()
	}
}

// Shutdown drains the platform gracefully: the queue runner stops
// accepting work and waits (up to ctx's deadline) for in-flight
// experiments to finish, then anything still non-terminal is marked
// errored so pollers see a final state.
func (p *Platform) Shutdown(ctx context.Context) error {
	var err error
	if p.runner != nil {
		err = p.runner.Shutdown(ctx)
	}
	if p.api != nil {
		p.api.AbortPending("platform shut down")
	}
	if p.master != nil {
		p.master.Close()
	}
	return err
}

// Algorithms lists the installed algorithm specifications.
func (p *Platform) Algorithms() []AlgorithmSpec { return algorithms.Specs() }

// Datasets reports dataset → worker availability, as the master tracks it.
func (p *Platform) Datasets() map[string][]string { return p.master.Availability() }

// RunExperiment executes an algorithm synchronously on the federation.
// When a privacy budget is configured and the deployment injects DP noise,
// each run spends from the accountant; an exhausted budget refuses the run.
func (p *Platform) RunExperiment(algorithm string, req Request) (Result, error) {
	alg := algorithms.Get(algorithm)
	if alg == nil {
		return nil, fmt.Errorf("mip: unknown algorithm %q (have %v)", algorithm, algorithms.Names())
	}
	if p.accountant != nil && p.noisy {
		if err := p.accountant.Spend(p.epsPerRun, p.deltaPer); err != nil {
			return nil, fmt.Errorf("mip: %w (spent ε so far: %.3g)", err, spentEps(p.accountant))
		}
	}
	sess, err := p.master.NewSession(req.Datasets)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return algorithms.Run(alg, sess, req)
}

func spentEps(a *dp.Accountant) float64 {
	e, _ := a.Spent()
	return e
}

// MergeQuery runs an aggregate SQL over the federation's merge view of the
// data tables (non-secure path; aggregates are pushed down to workers).
func (p *Platform) MergeQuery(datasets []string, sql string) (*Table, error) {
	return p.master.MergeQuery(datasets, sql)
}

// Handler returns the REST API handler (mount it on any server).
func (p *Platform) Handler() http.Handler { return p.api.Handler() }

// Master exposes the federation master for advanced orchestration.
func (p *Platform) Master() *federation.Master { return p.master }

// SMPCStats reports the SMPC cluster's simulated traffic counters (zero
// values when security is off).
func (p *Platform) SMPCStats() (messages int, bytes int64) {
	if p.cluster == nil {
		return 0, 0
	}
	s := p.cluster.NetStats()
	return s.Messages, s.Bytes
}
