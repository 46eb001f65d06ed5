package algorithms

import (
	"encoding/json"
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/smpc"
	"mip/internal/stats"
)

// Federated Kaplan-Meier: round 1 takes the disjoint union of the distinct
// event times across workers (the SMPC engine's union primitive); round 2
// aggregates, per group and per distinct time, the event and censoring
// counts, from which the master builds the product-limit estimator with
// Greenwood confidence intervals and the log-rank test between two groups.

func init() {
	federation.RegisterLocal("km_times_local", kmTimesLocal)
	federation.RegisterLocal("km_counts_local", kmCountsLocal)
	Register(&KaplanMeier{})
}

// kmArgs are the kwargs of both Kaplan-Meier steps: the time variable and,
// for the counts, the event indicator, the distinct times and the groups
// (GroupVar empty puts every row in the one group).
type kmArgs struct {
	Time     string    `json:"time"`
	Event    string    `json:"event,omitempty"`
	Times    []float64 `json:"times,omitempty"`
	Groups   []string  `json:"groups,omitempty"`
	GroupVar string    `json:"group_var,omitempty"`
}

func kmTimesLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	var a kmArgs
	if err := kwargs.Decode(&a); err != nil {
		return nil, err
	}
	ts, err := floatCol(data, a.Time)
	if err != nil {
		return nil, err
	}
	seen := map[float64]struct{}{}
	for _, t := range ts {
		seen[t] = struct{}{}
	}
	out := make([]float64, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	return federation.Transfer{"times": federation.Vector(out).WithOp(smpc.OpUnion)}, nil
}

// kmCountsLocal returns per group g and per distinct time t: events d[g][t],
// censorings c[g][t] and the group totals.
func kmCountsLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	var a kmArgs
	if err := kwargs.Decode(&a); err != nil {
		return nil, err
	}
	times, groups, groupVar := a.Times, a.Groups, a.GroupVar
	if times == nil {
		return nil, fmt.Errorf("algorithms: missing times kwarg")
	}
	if groups == nil {
		return nil, fmt.Errorf("algorithms: missing groups kwarg")
	}
	ts, err := floatCol(data, a.Time)
	if err != nil {
		return nil, err
	}
	evs, err := floatCol(data, a.Event)
	if err != nil {
		return nil, err
	}
	var gs []string
	if groupVar != "" {
		if gs, err = stringCol(data, groupVar); err != nil {
			return nil, err
		}
	}
	timeIdx := make(map[float64]int, len(times))
	for i, t := range times {
		timeIdx[t] = i
	}
	groupIdx := make(map[string]int, len(groups))
	for i, g := range groups {
		groupIdx[g] = i
	}
	ng, nt := len(groups), len(times)
	events := make([]float64, ng*nt) // groups × times
	censored := make([]float64, ng*nt)
	totals := make([]float64, ng)
	for r := range ts {
		g := 0
		if groupVar != "" {
			gi, ok := groupIdx[gs[r]]
			if !ok {
				continue
			}
			g = gi
		}
		ti, ok := timeIdx[ts[r]]
		if !ok {
			continue // time discovered after round 1 (shouldn't happen)
		}
		totals[g]++
		if evs[r] != 0 {
			events[g*nt+ti]++
		} else {
			censored[g*nt+ti]++
		}
	}
	return federation.Transfer{"events": federation.Matrix(ng, nt, events), "censored": federation.Matrix(ng, nt, censored),
		"totals": federation.Vector(totals)}, nil
}

// KMPoint is one step of a survival curve.
type KMPoint struct {
	Time     float64 `json:"time"`
	AtRisk   float64 `json:"at_risk"`
	Events   float64 `json:"events"`
	Censored float64 `json:"censored"`
	Survival float64 `json:"survival"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
}

// KMCurve is one group's estimator.
type KMCurve struct {
	Group  string    `json:"group"`
	N      float64   `json:"n"`
	Events float64   `json:"events"`
	Median float64   `json:"median"` // NaN if never below 0.5
	Points []KMPoint `json:"points"`
}

// MarshalJSON renders an unreached median as JSON null.
func (c KMCurve) MarshalJSON() ([]byte, error) {
	type curve KMCurve // the fields without this method
	return json.Marshal(struct {
		curve
		Median *float64 `json:"median"`
	}{curve(c), finiteOrNull(c.Median)})
}

// KaplanMeier implements the federated Kaplan-Meier estimator.
type KaplanMeier struct{}

// Spec implements Algorithm.
func (*KaplanMeier) Spec() Spec {
	return Spec{
		Name:  "kaplan_meier",
		Label: "Kaplan-Meier Estimator",
		Desc:  "Product-limit survival curves (Greenwood CIs) per group with a log-rank test; distinct event times come from the SMPC disjoint union.",
		Y:     VarSpec{Min: 2, Max: 2, Doc: "time variable, then event indicator (1=event, 0=censored)"},
		X:     VarSpec{Min: 0, Max: 1, Types: []string{"nominal"}, Doc: "optional grouping variable"},
		Parameters: []ParamSpec{
			{Name: "groups", Label: "Group values", Type: "string"},
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *KaplanMeier) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	timeVar, eventVar := req.Y[0], req.Y[1]
	groups := req.ParamStrings("groups")
	groupVar := ""
	if len(req.X) == 1 {
		groupVar = req.X[0]
		if len(groups) < 2 {
			return nil, fmt.Errorf("algorithms: kaplan_meier with a group variable needs parameter groups")
		}
	} else {
		groups = []string{"all"}
	}

	vars := []string{timeVar, eventVar}
	if groupVar != "" {
		vars = append(vars, groupVar)
	}

	// Round 1: distinct times (secure disjoint union when SMPC is on).
	union, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "km_times_local",
		Vars:   vars,
		Filter: req.Filter,
		Kwargs: kmArgs{Time: timeVar},
	})
	if err != nil {
		return nil, err
	}
	times, err := union.Floats("times")
	if err != nil {
		return nil, err
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("algorithms: no observations")
	}

	// Round 2: counts per group per time.
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "km_counts_local",
		Vars:   vars,
		Filter: req.Filter,
		Kwargs: kmArgs{Time: timeVar, Event: eventVar, Times: times, Groups: groups, GroupVar: groupVar},
	})
	if err != nil {
		return nil, err
	}
	events, err := agg.Matrix("events")
	if err != nil {
		return nil, err
	}
	censored, err := agg.Matrix("censored")
	if err != nil {
		return nil, err
	}
	totals, _ := agg.Floats("totals")

	alpha := req.ParamFloat("alpha", 0.05)
	zcrit := stats.NormalQuantile(1 - alpha/2)
	var curves []KMCurve
	for g, name := range groups {
		curves = append(curves, buildKMCurve(name, times, events[g], censored[g], totals[g], zcrit))
	}

	result := Result{"curves": curves, "times": times}
	if len(groups) == 2 {
		chi, p := logRank(times, events, censored, totals)
		result["logrank_chi2"] = chi
		result["logrank_p"] = p
	}
	return result, nil
}

func buildKMCurve(name string, times []float64, events, censored []float64, total, zcrit float64) KMCurve {
	curve := KMCurve{Group: name, N: total, Median: math.NaN()}
	surv := 1.0
	var greenwood float64
	atRisk := total
	for i, t := range times {
		d, c := events[i], censored[i]
		if atRisk <= 0 {
			break
		}
		if d > 0 {
			surv *= 1 - d/atRisk
			if atRisk > d {
				greenwood += d / (atRisk * (atRisk - d))
			}
			curve.Events += d
		}
		se := surv * math.Sqrt(greenwood)
		p := KMPoint{
			Time: t, AtRisk: atRisk, Events: d, Censored: c, Survival: surv,
			CILow:  math.Max(0, surv-zcrit*se),
			CIHigh: math.Min(1, surv+zcrit*se),
		}
		curve.Points = append(curve.Points, p)
		if math.IsNaN(curve.Median) && surv <= 0.5 {
			curve.Median = t
		}
		atRisk -= d + c
	}
	return curve
}

// logRank computes the two-group log-rank statistic.
func logRank(times []float64, events, censored [][]float64, totals []float64) (chi2, p float64) {
	atRisk := []float64{totals[0], totals[1]}
	var oMinusE, varSum float64
	for i := range times {
		d0, d1 := events[0][i], events[1][i]
		n0, n1 := atRisk[0], atRisk[1]
		n := n0 + n1
		d := d0 + d1
		if n > 1 && d > 0 {
			e0 := d * n0 / n
			v := d * (n0 / n) * (n1 / n) * (n - d) / (n - 1)
			oMinusE += d0 - e0
			varSum += v
		}
		atRisk[0] -= d0 + censored[0][i]
		atRisk[1] -= d1 + censored[1][i]
	}
	if varSum <= 0 {
		return 0, 1
	}
	chi2 = oMinusE * oMinusE / varSum
	return chi2, 1 - stats.ChiSquaredCDF(chi2, 1)
}
