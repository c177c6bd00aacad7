package main

// metricSpec names one metric as BENCHMARK.json registers it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is the metric set a -trace 0 run prints, on every workload.
// Where README.md gives a metric for some workloads only, the others
// report it under the same definition applied to their own unit of
// work, so each run prints the full set.
//
// The per-decision latency figures (decision_s_p50, place_s_p50,
// place_s_tail) are printed in the info record, not here: on colocate
// a decision's host time grows faster than its window count, which
// the seed sets, and their median and tail over one run's decisions
// spread too far from seed to seed to bound (README.md has the
// figures).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"decisions_per_s", "1/s", "higher"},
	{"windows_per_decision", "windows", "lower"},
	{"qos_met_frac", "ratio", "higher"},
	{"bg_vs_oracle", "ratio", "higher"},
	{"placements_per_s", "1/s", "higher"},
	{"admit_frac", "ratio", "higher"},
	{"windows_per_placement", "windows", "lower"},
}

// perLayer is the metric set a -trace 1 run prints, on every workload.
// Each is moved by some registered workload; a layer a workload does
// not reach, or cannot be timed from outside on it, reads 0 there
// (README.md lists which).
var perLayer = []metricSpec{
	{"core.run_s", "s", "lower"},
	{"core.allocs_per_decision", "count", "lower"},
	{"core.converged_frac", "ratio", "higher"},
	{"core.violating_window_frac", "ratio", "lower"},
	{"server.observe_s", "s", "lower"},
	{"server.windows", "count", "lower"},
	{"bo.acq_s", "s", "lower"},
	{"bo.acq_share", "ratio", "lower"},
	{"bo.fit_other_s", "s", "lower"},
	{"bo.iterations", "count", "lower"},
	{"bo.collision_frac", "ratio", "lower"},
	{"bo.refit_frac", "ratio", "lower"},
	{"cluster.screens_per_place", "count", "lower"},
	{"cluster.verify_windows", "count", "lower"},
	{"profile.lookups", "count", "lower"},
	{"profile.hit_rate", "ratio", "higher"},
	{"fleet.new_s", "s", "lower"},
	{"fleet.run_s", "s", "lower"},
	{"fleet.epoch_s_p50", "s", "lower"},
	{"fleet.epoch_s_tail", "s", "lower"},
	{"fleet.epochs", "count", "lower"},
	{"fleet.allocs_per_placement", "count", "lower"},
	{"fleet.alloc_mb", "MB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// churnLayer is the metric set only cluster-churn moves: the Place
// paths, Remove, FailNode and the warm-screen, pre-filter and near-hit
// counters, which read 0 on colocate and on a filling fleet. A
// cluster-churn -trace 1 run prints them after perLayer; they join
// BENCHMARK.json when cluster-churn does.
var churnLayer = []metricSpec{
	{"cluster.place_cached_s", "s", "lower"},
	{"cluster.place_screened_s", "s", "lower"},
	{"cluster.remove_s", "s", "lower"},
	{"cluster.failnode_s", "s", "lower"},
	{"cluster.warm_screen_frac", "ratio", "higher"},
	{"cluster.prefilter_rejects", "count", "higher"},
	{"cluster.rehomed", "count", "higher"},
	{"cluster.allocs_per_place", "count", "lower"},
	{"profile.near_hit_rate", "ratio", "higher"},
}

// bgVsOracleUndefined is what the placement workloads report as
// bg_vs_oracle, which is defined on colocate only: every run prints
// every end-to-end metric, and a ratio that is never 0.
const bgVsOracleUndefined = 1

// emit adds every metric of set to the report, taking values from vals
// (absent ones read 0).
func (r *report) emit(set []metricSpec, vals map[string]float64) {
	for _, m := range set {
		r.add(m.name, vals[m.name], m.unit)
	}
}

// placementFigures are the host-time figures every workload derives
// the same way from its decision and placement samples.
type placementFigures struct {
	decisionS  []float64 // host seconds per decision
	placeS     []float64 // host seconds per committed placement
	busyS      float64   // host seconds inside timed calls
	decisions  float64   // decisions made
	placements float64   // placements committed
}

// into sets the throughput metrics and records the latency figures,
// with their sample counts, in the info record.
func (p placementFigures) into(vals map[string]float64, rep *report) {
	vals["decisions_per_s"] = ratio(p.decisions, p.busyS)
	vals["placements_per_s"] = ratio(p.placements, p.busyS)
	// A refused request misses any latency limit, so the tail is taken
	// over every decision, placed or not.
	tail := tailFraction(len(p.decisionS))
	rep.info["latency"] = map[string]float64{
		"decision_s_p50":          median(p.decisionS),
		"place_s_p50":             median(p.placeS),
		"place_s_tail":            quantile(p.decisionS, tail),
		"place_s_tail_percentile": 100 * tail,
		"decision_samples":        float64(len(p.decisionS)),
		"place_samples":           float64(len(p.placeS)),
	}
}
