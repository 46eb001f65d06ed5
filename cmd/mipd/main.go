// Command mipd runs a MIP deployment in one process: a master, N workers
// loaded with synthetic or CSV cohorts, an optional SMPC cluster, and the
// REST API the dashboard (or mipctl) talks to.
//
// Usage:
//
//	mipd [-addr :8080] [-workers 3] [-rows 300] [-security off|shamir|ft]
//	     [-noise none|laplace|gaussian] [-noise-scale 0]
//	     [-csv dir]   # load <dir>/<worker>.csv instead of synthetic data
//	     [-debug-addr :6060]  # pprof + metrics on a private listener
//	     [-min-workers 0] [-quorum 0] [-step-deadline 0]  # fault tolerance
//	     [-slow-query 250ms]  # slow-query log threshold (GET /queries/slow)
//	     [-audit-log path]    # append the tamper-evident audit trail as JSONL
//	     [-engine-parallelism 0]  # intra-query parallelism per worker (0 = NumCPU)
//	     [-query-deadline 0]   # per-statement wall-time ceiling (0 = unbounded)
//	     [-query-mem-limit 0]  # per-statement accounted-bytes ceiling (0 = unbounded)
//	     [-query-spill-dir ""] # needs -query-mem-limit: spill joins/aggregates here instead of cancelling
//	     [-result-cache-bytes 0]  # master result cache byte budget (0 disables)
//
// The engine, cache and fault-tolerance flags fill mip.Config, the one
// route by which a deployment tunes the platform. The engine's plan cache
// is one process-wide 256-statement LRU (GET /cache reports it).
//
// The fault-tolerance flags let plain-path experiments degrade to a partial
// aggregate instead of failing when workers die mid-step: -min-workers and
// -quorum (a 0-1 fraction) set the quorum, -step-deadline bounds how long a
// step waits for stragglers. All zero (the default) keeps strict semantics.
//
// With -csv, each file must be a harmonized CSV (header row; a "dataset"
// column). Without it, workers get synthetic EDSD-like shards.
//
// The API itself serves GET /metrics (Prometheus text format) and
// GET /experiments/{uuid}/trace (span tree). -debug-addr additionally
// exposes net/http/pprof profiles on a separate, typically non-public,
// listener. SIGINT/SIGTERM trigger a graceful drain: the HTTP server stops
// accepting connections and running experiments get up to 30s to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mip"
	"mip/internal/obs"
)

// logger emits mipd's structured JSON records (stderr, like every MIP
// process); fatal logs and exits for startup errors.
var logger = obs.Logger("mipd")

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "REST API listen address")
	debugAddr := flag.String("debug-addr", "", "optional pprof/metrics listen address (e.g. :6060)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	nWorkers := flag.Int("workers", 3, "number of workers (synthetic mode)")
	rows := flag.Int("rows", 300, "rows per synthetic worker")
	security := flag.String("security", "off", "aggregation security: off | shamir | ft")
	noise := flag.String("noise", "none", "in-protocol DP noise: none | laplace | gaussian")
	noiseScale := flag.Float64("noise-scale", 0, "noise scale (Laplace b or Gaussian sigma)")
	csvDir := flag.String("csv", "", "directory of per-worker harmonized CSV files")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	minWorkers := flag.Int("min-workers", 0, "minimum workers for a degraded plain-path result (0 = all required)")
	quorum := flag.Float64("quorum", 0, "quorum fraction of session workers for degraded results (0 = all required)")
	stepDeadline := flag.Duration("step-deadline", 0, "per-step straggler deadline before dropping slow workers (0 = wait forever)")
	slowQuery := flag.Duration("slow-query", obs.DefaultSlowLog.Threshold(), "engine slow-query log threshold (see GET /queries/slow)")
	auditLog := flag.String("audit-log", "", "append hash-chained audit records to this JSONL file (see GET /audit)")
	enginePar := flag.Int("engine-parallelism", 0, "intra-query parallelism per worker engine (0 = NumCPU); results are identical at any value")
	queryDeadline := flag.Duration("query-deadline", 0, "cancel engine statements running longer than this (0 = unbounded); see GET /queries/active")
	queryMemLimit := flag.Int64("query-mem-limit", 0, "per-statement memory budget in bytes (0 = unbounded); without -query-spill-dir, statements over it are cancelled")
	querySpillDir := flag.String("query-spill-dir", "", "spill directory (needs -query-mem-limit): budget-crossing joins/aggregates partition to disk here and keep running")
	resultCacheBytes := flag.Int64("result-cache-bytes", 0, "federated result cache byte budget on the master (0 disables); see GET /cache")
	flag.Parse()

	obs.DefaultSlowLog.SetThreshold(*slowQuery)
	if *auditLog != "" {
		// O_APPEND: restarts extend the existing chain file; VerifyChain
		// accepts a file that starts mid-chain, so rotation is safe too.
		f, err := os.OpenFile(*auditLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal("opening audit log failed", "file", *auditLog, "err", err.Error())
		}
		defer f.Close()
		obs.DefaultAudit.SetSink(f)
		logger.Info("audit trail sink attached", "file", *auditLog)
	}

	cfg := mip.Config{Seed: *seed, EngineParallelism: *enginePar,
		QueryDeadline: *queryDeadline, QueryMemLimit: *queryMemLimit, QuerySpillDir: *querySpillDir,
		ResultCacheBytes: *resultCacheBytes}
	cfg.Tolerance = mip.Tolerance{MinWorkers: *minWorkers, Quorum: *quorum, StepDeadline: *stepDeadline}
	switch strings.ToLower(*security) {
	case "off":
		cfg.Security = mip.SecurityOff
	case "shamir":
		cfg.Security = mip.SecuritySMPCShamir
	case "ft":
		cfg.Security = mip.SecuritySMPCFullThreshold
	default:
		fatal("unknown -security value", "security", *security)
	}
	switch strings.ToLower(*noise) {
	case "none":
	case "laplace":
		cfg.NoiseKind = mip.NoiseLaplace
		cfg.NoiseScale = *noiseScale
	case "gaussian":
		cfg.NoiseKind = mip.NoiseGaussian
		cfg.NoiseScale = *noiseScale
	default:
		fatal("unknown -noise value", "noise", *noise)
	}

	if *csvDir != "" {
		files, err := filepath.Glob(filepath.Join(*csvDir, "*.csv"))
		if err != nil || len(files) == 0 {
			fatal("no CSV files found", "dir", *csvDir)
		}
		for _, f := range files {
			tab, err := mip.LoadCSVTable(f)
			if err != nil {
				fatal("loading CSV failed", "file", f, "err", err.Error())
			}
			id := strings.TrimSuffix(filepath.Base(f), ".csv")
			cfg.Workers = append(cfg.Workers, mip.WorkerConfig{ID: id, Data: tab})
			logger.Info("worker loaded", "worker", id, "rows", tab.NumRows(), "file", f)
		}
	} else {
		for i := 0; i < *nWorkers; i++ {
			tab, err := mip.GenerateCohort(mip.SynthSpec{
				Dataset: "edsd", Rows: *rows, Seed: *seed + int64(i),
				MissingRate: 0.05, Shift: float64(i) * 0.3,
			})
			if err != nil {
				fatal("generating synthetic cohort failed", "err", err.Error())
			}
			id := fmt.Sprintf("hospital-%d", i)
			cfg.Workers = append(cfg.Workers, mip.WorkerConfig{ID: id, Data: tab})
			logger.Info("worker loaded", "worker", id, "rows", tab.NumRows(), "synthetic", true)
		}
	}

	platform, err := mip.New(cfg)
	if err != nil {
		fatal("platform startup failed", "err", err.Error())
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	srv := &http.Server{Addr: *addr, Handler: platform.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	logger.Info("MIP master up", "workers", len(cfg.Workers), "security", *security,
		"slow_query_threshold", slowQuery.String())
	logger.Info("REST API listening", "addr", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		platform.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	logger.Info("shutting down", "drain", drain.String())
	deadline, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(deadline); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if err := platform.Shutdown(deadline); err != nil {
		logger.Warn("drain incomplete: unfinished experiments marked error", "err", err.Error())
	}
	logger.Info("bye")
}

// serveDebug exposes pprof profiles and the metrics registry on a separate
// listener, mounted on an explicit mux so nothing leaks onto the API server.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", obs.MetricsHandler())
	logger.Info("debug listener up (pprof, metrics)", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("debug listener", "err", err.Error())
	}
}
