package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"mip"
	"mip/internal/dp"
	"mip/internal/engine"
	"mip/internal/smpc"
	"mip/internal/stats"
)

func init() {
	register("e5", "Claim: full-threshold is slow & strong, Shamir fast (secure sum across dims)", runE5)
	register("e6", "Claim: SMPC overhead concentrates in multiplications/comparisons (op mix)", runE6)
	register("e7", "Training: local DP vs secure aggregation + central noise (accuracy vs ε)", runE7)
	register("e8", "Claim: in-engine vectorized execution beats row-at-a-time (UDF-to-SQL payoff)", runE8)
}

// phase is the wall time and simulated traffic of one SMPC phase.
type phase struct {
	d   time.Duration
	net smpc.NetStats
}

// secureRun imports the vectors into one job and aggregates it with op,
// measuring the two phases apart: import (every worker secret-shares its
// vector; FT adds the dealer's MAC shares) and aggregate (the secure rounds
// up to the opened result).
func secureRun(c *smpc.Cluster, vecs [][]float64, op smpc.Op) (imp, agg phase) {
	c.ResetNetStats()
	start := time.Now()
	for w, vec := range vecs {
		fatalIf(c.ImportSecret("bench", fmt.Sprintf("w%d", w), vec))
	}
	imp = phase{time.Since(start), c.NetStats()}
	c.ResetNetStats()
	start = time.Now()
	_, err := c.Aggregate("bench", op, smpc.Noise{})
	fatalIf(err)
	return imp, phase{time.Since(start), c.NetStats()}
}

// plainRun is the zero-security floor of secureRun: the same fold over the
// cleartext vectors, with nothing to import.
func plainRun(vecs [][]float64, op smpc.Op) time.Duration {
	start := time.Now()
	if op == smpc.OpUnion {
		seen := map[float64]struct{}{}
		for _, vec := range vecs {
			for _, v := range vec {
				seen[v] = struct{}{}
			}
		}
		out := make([]float64, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		sort.Float64s(out)
		return time.Since(start)
	}
	acc := append([]float64(nil), vecs[0]...)
	for _, vec := range vecs[1:] {
		for i, v := range vec {
			switch op {
			case smpc.OpSum:
				acc[i] += v
			case smpc.OpProduct:
				acc[i] *= v
			case smpc.OpMin:
				acc[i] = math.Min(acc[i], v)
			case smpc.OpMax:
				acc[i] = math.Max(acc[i], v)
			}
		}
	}
	return time.Since(start)
}

// benchVecs returns `workers` copies of a dim-vector built by f.
func benchVecs(workers, dim int, f func(i int) float64) [][]float64 {
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = f(i)
	}
	out := make([][]float64, workers)
	for w := range out {
		out[w] = vec
	}
	return out
}

// E5 — FT vs Shamir vs plain across vector dimensions, per phase.
func runE5() {
	const workers = 4
	fmt.Printf("secure vector sum, %d workers, 3 SMPC nodes (Shamir t=1); import = all workers\n", workers)
	fmt.Printf("secret-sharing their vectors, aggregate = local share sums + opening (+ MACCheck)\n\n")
	fmt.Printf("%8s | %11s %11s %11s | %11s %11s %11s | %11s\n",
		"dim", "FT import", "FT agg", "FT bytes", "Sh import", "Sh agg", "Sh bytes", "plain agg")
	for _, dim := range []int{10, 100, 1000, 10000, 100000} {
		vecs := benchVecs(workers, dim, func(i int) float64 { return float64(i%100) / 7 })
		ftImp, ftAgg := secureRun(newCluster(smpc.FullThreshold, 3), vecs, smpc.OpSum)
		shImp, shAgg := secureRun(newCluster(smpc.ShamirScheme, 3), vecs, smpc.OpSum)
		fmt.Printf("%8d | %11s %11s %11d | %11s %11s %11d | %11s\n", dim,
			ftImp.d.Round(time.Microsecond), ftAgg.d.Round(time.Microsecond), ftImp.net.Bytes+ftAgg.net.Bytes,
			shImp.d.Round(time.Microsecond), shAgg.d.Round(time.Microsecond), shImp.net.Bytes+shAgg.net.Bytes,
			plainRun(vecs, smpc.OpSum).Round(time.Nanosecond))
	}
	fmt.Println("\npaper shape: FT costs a constant factor more than Shamir in both time and traffic")
	fmt.Println("(MACs double every share and every opening, plus the MACCheck round); both scale")
	fmt.Println("linearly in the dimension; the data owner picks the scheme per the security-")
	fmt.Println("efficiency trade-off. Plain addition is shown as the zero-security floor; for a")
	fmt.Println("sum, the import (one batched crypto/rand stream per vector) is most of the cost.")
}

// E6 — cost per operation type at fixed dimension, per phase.
func runE6() {
	const workers, dim = 4, 64
	ops := []struct {
		name string
		op   smpc.Op
	}{
		{"sum", smpc.OpSum}, {"product", smpc.OpProduct},
		{"min", smpc.OpMin}, {"max", smpc.OpMax}, {"union", smpc.OpUnion},
	}
	// Positive and small: safe for products.
	vecs := benchVecs(workers, dim, func(i int) float64 { return 1 + float64((i*13)%10)/10 })
	fmt.Printf("aggregation of %d-dim vectors from %d workers: wall time per phase and the traffic of\n", dim, workers)
	fmt.Printf("the aggregate phase (import traffic is the same for every op)\n\n")
	fmt.Printf("%-8s | %10s %10s %8s %10s | %10s %10s %8s %10s | %10s\n",
		"op", "FT import", "FT agg", "FT msgs", "FT bytes", "Sh import", "Sh agg", "Sh msgs", "Sh bytes", "plain agg")
	for _, o := range ops {
		ftImp, ftAgg := secureRun(newCluster(smpc.FullThreshold, 3), vecs, o.op)
		shImp, shAgg := secureRun(newCluster(smpc.ShamirScheme, 3), vecs, o.op)
		fmt.Printf("%-8s | %10s %10s %8d %10d | %10s %10s %8d %10d | %10s\n", o.name,
			ftImp.d.Round(time.Microsecond), ftAgg.d.Round(time.Microsecond), ftAgg.net.Messages, ftAgg.net.Bytes,
			shImp.d.Round(time.Microsecond), shAgg.d.Round(time.Microsecond), shAgg.net.Messages, shAgg.net.Bytes,
			plainRun(vecs, o.op).Round(time.Nanosecond))
	}
	fmt.Println("\npaper shape: sums are cheap (pure local addition + one opening); products burn a")
	fmt.Println("Beaver triple and two extra openings per fold; min/max pay a masked comparison")
	fmt.Println("(mask + multiplication + opening) per fold — exactly where the paper locates the")
	fmt.Println("overheads (\"extensive multiplications, branching, and comparisons\").")
}

// E7 — DP-at-worker vs secure aggregation with central noise: federated
// mean-model accuracy across ε for a fixed sensitivity.
func runE7() {
	// The quantity released each round: the mean Aβ42 over ~1000 rows.
	// Sensitivity of the sum is ~max|x| (bounded at 2000 pg/ml); per-mean
	// sensitivity = 2000/n.
	const nWorkers = 4
	const rowsEach = 250
	totalRows := float64(nWorkers * rowsEach)
	sensitivity := 2000.0 / totalRows

	truthP := buildPlatform(nWorkers, rowsEach, mip.SecurityOff)
	res, err := truthP.RunExperiment("ttest_onesample", mip.Request{
		Datasets: []string{"edsd"}, Y: []string{"ab42"}})
	fatalIf(err)
	truth := res["mean"].(float64)
	truthP.Close()

	fmt.Printf("released federated mean of Aβ42 (true value %.3f), Gaussian mechanism, δ=1e-5\n", truth)
	fmt.Printf("local DP: each worker noises its own aggregate (σ_local = σ_central·√W)\n\n")
	fmt.Printf("%8s %12s | %14s %12s | %14s %12s\n",
		"ε", "σ_central", "SA+central", "abs err", "local DP", "abs err")
	const trials = 30
	for _, eps := range []float64{0.1, 0.5, 1, 2, 5} {
		sigma := dp.GaussianSigma(sensitivity, eps, 1e-5)
		var errCentral, errLocal float64
		rng := stats.NewRNG(int64(eps * 1000))
		for t := 0; t < trials; t++ {
			// Central: one draw on the aggregate (inside SMPC).
			central := truth + rng.Normal(0, sigma)
			errCentral += absF(central - truth)
			// Local: each worker adds full-σ noise to its share of the
			// mean; the aggregate accumulates W independent noises.
			local := truth
			for w := 0; w < nWorkers; w++ {
				local += rng.Normal(0, sigma)
			}
			errLocal += absF(local - truth)
		}
		fmt.Printf("%8.2f %12.4f | %14.4f %12.4f | %14.4f %12.4f\n",
			eps, sigma,
			truth, errCentral/trials,
			truth, errLocal/trials)
	}
	fmt.Println("\npaper shape: secure aggregation with central noise dominates local DP at equal ε")
	fmt.Println("(the √W factor), which is why MIP offers SA through the SMPC cluster as the")
	fmt.Println("preferred training mode and local DP as the fallback.")

	// End-to-end: federated logistic regression accuracy under in-protocol
	// Gaussian noise across scales.
	fmt.Println()
	header("end-to-end: logistic regression AD vs CN with in-protocol noise")
	fmt.Printf("%12s %14s %14s\n", "noise σ", "hippocampus β", "p_tau β")
	for _, sigma := range []float64{0, 0.5, 2, 10} {
		cfgNoise := mip.NoiseKind(mip.NoiseNone)
		if sigma > 0 {
			cfgNoise = mip.NoiseGaussian
		}
		var workers []mip.WorkerConfig
		for i := 0; i < nWorkers; i++ {
			tab, err := mip.GenerateCohort(mip.SynthSpec{Dataset: "edsd", Rows: rowsEach, Seed: int64(70 + i)})
			fatalIf(err)
			workers = append(workers, mip.WorkerConfig{ID: fmt.Sprintf("w%d", i), Data: tab})
		}
		p, err := mip.New(mip.Config{
			Workers: workers, Security: mip.SecuritySMPCShamir,
			NoiseKind: cfgNoise, NoiseScale: sigma, Seed: 5,
		})
		fatalIf(err)
		res, err := p.RunExperiment("logistic_regression", mip.Request{
			Datasets: []string{"edsd"}, Y: []string{"alzheimerbroadcategory"},
			X:          []string{"lefthippocampus", "p_tau"},
			Filter:     "alzheimerbroadcategory IN ('AD','CN')",
			Parameters: map[string]any{"pos_level": "AD", "max_iter": 15},
		})
		if err != nil {
			fmt.Printf("%12.1f  %s\n", sigma, err)
			p.Close()
			continue
		}
		m := res["model"].(*mip.LogRegModel)
		fmt.Printf("%12.1f %14.4f %14.4f\n", sigma, m.Coefficients[1].Estimate, m.Coefficients[2].Estimate)
		p.Close()
	}
	fmt.Println("\ncoefficients drift as σ grows — the utility cost of the privacy budget.")
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// E8 — vectorized in-engine execution vs a row-at-a-time interpreter over
// the same query, across table sizes (the UDF-to-SQL motivation).
func runE8() {
	fmt.Println("query: SELECT avg(x), sum(x*x), count(*) over rows with x > 0.2, three execution styles:")
	fmt.Println("  in-engine    — the SQL path (vectorized kernels over columnar storage)")
	fmt.Println("  boxed rows   — in-process row-at-a-time with per-row boxing")
	fmt.Println("  external UDF — rows serialized out of the engine and parsed by the UDF runtime,")
	fmt.Println("                 the cost the UDF-to-SQL translation removes")
	fmt.Printf("\n%10s | %12s | %12s %7s | %12s %7s\n",
		"rows", "in-engine", "boxed rows", "vs", "external UDF", "vs")
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		tab := engine.NewTable(engine.Schema{{Name: "x", Type: engine.Float64}})
		rng := stats.NewRNG(9)
		for i := 0; i < n; i++ {
			fatalIf(tab.AppendRow(rng.Float64()))
		}
		db := engine.NewDB()
		db.RegisterTable("t", tab)

		start := time.Now()
		res, err := db.Query(`SELECT avg(x) AS m, sum(x*x) AS s2, count(*) AS n FROM t WHERE x > 0.2`)
		fatalIf(err)
		vecTime := time.Since(start)
		vecMean := res.ColByName("m").Float64s()[0]

		// Boxed row-at-a-time interpreter.
		start = time.Now()
		var cnt, sum, sum2 float64
		col := tab.Col(0)
		for i := 0; i < tab.NumRows(); i++ {
			v := col.Value(i) // boxed access per row
			x, ok := v.(float64)
			if !ok || x <= 0.2 {
				continue
			}
			cnt++
			sum += x
			sum2 += x * x
		}
		rowTime := time.Since(start)
		if absF(vecMean-sum/cnt) > 1e-9 {
			fatalIf(fmt.Errorf("engines disagree"))
		}

		// External UDF: every row crosses a serialization boundary (text
		// encode on the engine side, parse on the UDF side) before the
		// procedural code sees it.
		start = time.Now()
		var cnt2, sumE, sum2E float64
		for i := 0; i < tab.NumRows(); i++ {
			wire := strconv.FormatFloat(col.Float64s()[i], 'g', -1, 64)
			x, err := strconv.ParseFloat(wire, 64)
			if err != nil || x <= 0.2 {
				continue
			}
			cnt2++
			sumE += x
			sum2E += x * x
		}
		extTime := time.Since(start)
		if cnt2 != cnt {
			fatalIf(fmt.Errorf("external path disagrees"))
		}

		fmt.Printf("%10d | %12s | %12s %6.1fx | %12s %6.1fx\n",
			n, vecTime.Round(time.Microsecond),
			rowTime.Round(time.Microsecond), float64(rowTime)/float64(vecTime),
			extTime.Round(time.Microsecond), float64(extTime)/float64(vecTime))
	}
	fmt.Println("\npaper shape: running the procedural step inside the engine (the UDFGenerator's")
	fmt.Println("whole point) avoids the serialization wall entirely and amortizes per-value")
	fmt.Println("dispatch across vectors; the advantage grows with table size.")
}
