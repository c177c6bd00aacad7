package main

import (
	"fmt"
	"time"

	"clite/internal/bo"
	"clite/internal/core"
	"clite/internal/policies"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// Table 3 of the paper: the latency-critical and PARSEC background
// workloads the colocate mixes draw from.
var (
	lcWorkloads = []string{"img-dnn", "masstree", "memcached", "specjbb", "xapian"}
	bgWorkloads = []string{"blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster", "swaptions"}
)

// colocatePrefixPerSecond sizes colocate's fixed prefix, up to the
// whole list of 24 mixes, which it reaches at 50 s of budget. A 2-CPU
// Xeon at two BO workers runs 0.55–1.2 mixes a second, so the prefix
// ends within the budget even on a slow host, and further mixes fill
// the rest. A decision's host time varies by about 45% from one BO
// seed to the next, so the run times every decision the budget allows.
const colocatePrefixPerSecond = 0.48

type lcJob struct {
	name string
	load float64
}

// mix is one single-node co-location: 2–3 LC jobs and one BG job.
type mix struct {
	lc   []lcJob
	bg   string
	seed int64 // machine noise and BO seed
}

func (m mix) String() string {
	s := ""
	for _, j := range m.lc {
		s += fmt.Sprintf("%s@%.1f+", j.name, j.load)
	}
	return s + m.bg
}

// pairLoads are the ten load pairs from {0.1, 0.2, 0.3, 0.4}.
var pairLoads = [][2]float64{
	{0.1, 0.1}, {0.1, 0.2}, {0.1, 0.3}, {0.1, 0.4}, {0.2, 0.2},
	{0.2, 0.3}, {0.2, 0.4}, {0.3, 0.3}, {0.3, 0.4}, {0.4, 0.4},
}

// tripleMixes are the 3-LC templates: light loads, since a triple
// loaded much beyond a total of 0.5 is infeasible under every
// partition and would only measure the run to the sample cap.
var tripleMixes = [][]lcJob{
	{{"img-dnn", 0.1}, {"masstree", 0.1}, {"memcached", 0.2}},
	{{"memcached", 0.1}, {"specjbb", 0.2}, {"xapian", 0.1}},
	{{"img-dnn", 0.2}, {"specjbb", 0.1}, {"xapian", 0.1}},
	{{"masstree", 0.1}, {"memcached", 0.1}, {"xapian", 0.1}},
}

// colocateList is the fixed mix list: every pair of LC workloads at two
// load pairs (together all ten load pairs, each twice), then the 3-LC
// templates, with the BG jobs dealt round-robin. The list is the same
// for every seed: a decision's quality and cost vary so much from one
// BO seed to the next that a seed-drawn list of this length would
// mostly measure which mixes were drawn.
func colocateList() []mix {
	var out []mix
	for round := 0; round < 2; round++ {
		k := 0
		for a := 0; a < len(lcWorkloads); a++ {
			for b := a + 1; b < len(lcWorkloads); b++ {
				loads := pairLoads[(k+5*round)%len(pairLoads)]
				out = append(out, mix{lc: []lcJob{{lcWorkloads[a], loads[round]}, {lcWorkloads[b], loads[1-round]}}})
				k++
			}
		}
	}
	for _, t := range tripleMixes {
		out = append(out, mix{lc: t})
	}
	for i := range out {
		out[i].bg = bgWorkloads[i%len(bgWorkloads)]
	}
	return out
}

// colocateMix returns the i-th mix of a run: the list, cycled, with
// the machine-noise and BO seed drawn from the run's seed.
func colocateMix(seed int64, i int) mix {
	list := colocateList()
	m := list[i%len(list)]
	m.seed = seed*1_000_003 + int64(i)*7919
	return m
}

// build places the mix on a fresh simulated machine sharing cals.
func (m mix) build(cals *server.Calibrations) (*server.Machine, error) {
	mach := server.NewShared(resource.Default(), server.DefaultSpec(), m.seed, cals)
	for _, j := range m.lc {
		if _, err := mach.AddLC(j.name, j.load); err != nil {
			return nil, err
		}
	}
	if _, err := mach.AddBG(m.bg); err != nil {
		return nil, err
	}
	return mach, nil
}

// timedObserver is the server layer's boundary: it forwards every call
// to the machine and records a span around each observation window.
// It forwards SetTelemetry too, so the machine still publishes its
// window counters when the controller hands it a registry.
type timedObserver struct {
	server.Observer
	mach   *server.Machine
	spans  *spans
	parent int
}

func (o *timedObserver) Observe(cfg resource.Config) (server.Observation, error) {
	i := o.spans.begin("server.observe", o.parent)
	obs, err := o.Observer.Observe(cfg)
	o.spans.end(i)
	return obs, err
}

func (o *timedObserver) SetTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	o.mach.SetTelemetry(tr, reg)
}

// colocatePass is one pass of controller invocations, each run to
// termination, one after another: the run's fixed prefix of mixes,
// then, while the budget lasts, further mixes under their own seeds.
type colocatePass struct {
	mixes   []mix
	results []core.Result
	prefix  int       // mixes in the fixed prefix
	runS    []float64 // host seconds per Controller.Run
	wallS   float64   // the whole pass, with any machine builds
	digest  string    // of the prefix's decisions
	// Traced passes only.
	spans   *spans
	reg     *telemetry.Registry
	mallocs []float64
}

// runColocatePass runs the prefix on the given machines (building any
// that are nil), then more mixes while another one still fits in
// budget seconds; a budget of 0 runs the prefix alone.
func runColocatePass(seed int64, machines []*server.Machine, cals *server.Calibrations, workers int, traced bool, budget float64) (*colocatePass, error) {
	p := &colocatePass{prefix: len(machines)}
	if traced {
		p.spans = &spans{}
		p.reg = telemetry.NewRegistry()
	}
	d := newDigest()
	start := time.Now()
	for i := 0; i < p.prefix || budget > 0 && another(start, budget, i); i++ {
		mx := colocateMix(seed, i)
		var mach *server.Machine
		if i < p.prefix {
			mach = machines[i]
		}
		if mach == nil {
			var err error
			if mach, err = mx.build(cals); err != nil {
				return p, err
			}
		}
		opts := core.Options{BO: bo.Options{Seed: mx.seed, Workers: workers}}
		var res core.Result
		var err error
		if traced {
			opts.Metrics = p.reg
			obs := &timedObserver{Observer: mach, mach: mach, spans: p.spans}
			var meter allocMeter
			meter.start()
			obs.parent = p.spans.begin("core.run", -1)
			res, err = core.New(obs, opts).Run()
			p.spans.end(obs.parent)
			n, _ := meter.stop()
			p.mallocs = append(p.mallocs, float64(n))
		} else {
			ctrl := core.New(mach, opts)
			p.runS = append(p.runS, timed(func() { res, err = ctrl.Run() }))
		}
		if err != nil {
			return p, fmt.Errorf("mix %d (%s): %w", i, mx, err)
		}
		p.mixes = append(p.mixes, mx)
		p.results = append(p.results, res)
		if i < p.prefix {
			d.line("%d %s samples=%d converged=%t qos=%t score=%.17g", i, res.Best.Key(), res.SamplesUsed, res.Converged, res.QoSMeetable, res.BestScore)
		}
	}
	p.wallS = time.Since(start).Seconds()
	p.digest = d.sum()
	return p, nil
}

func runColocate(cfg config) (*report, error) {
	rep := newReport()
	n := int(cfg.seconds*colocatePrefixPerSecond + 0.5)
	n = min(max(n, 2), len(colocateList()))

	// Set-up: a fresh calibration store and one machine per prefix mix.
	var cals *server.Calibrations
	var machines []*server.Machine
	setupS, err := setupMedian(func() error {
		cals = server.NewCalibrations()
		machines = make([]*server.Machine, n)
		for i := range machines {
			var err error
			if machines[i], err = colocateMix(cfg.seed, i).build(cals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.info["prefix_mixes"] = n

	if cfg.trace {
		// Both passes run the prefix alone and build their machines
		// in-pass, so their wall times differ only by the tracing.
		untraced, err := runColocatePass(cfg.seed, make([]*server.Machine, n), cals, cfg.workers, false, 0)
		if rep.calls(len(untraced.results), err) {
			rep.emit(perLayer, nil)
			return rep, nil
		}
		traced, err := runColocatePass(cfg.seed, make([]*server.Machine, n), cals, cfg.workers, true, 0)
		if rep.calls(len(traced.results), err) {
			rep.emit(perLayer, nil)
			return rep, nil
		}
		rep.check(traced.digest == untraced.digest, "traced pass decided differently (digest %s, untraced %s)", traced.digest, untraced.digest)
		checkColocate(rep, untraced)
		rep.emit(perLayer, colocateLayers(rep, untraced, traced))
		rep.info["digest"] = untraced.digest
		return rep, nil
	}

	p, err := runColocatePass(cfg.seed, machines, cals, cfg.workers, false, cfg.seconds)
	if rep.calls(len(p.results), err) {
		rep.emit(endToEnd, nil)
		return rep, nil
	}
	vals := map[string]float64{"setup_s": setupS, "peak_rss_mb": peakRSSMB()}
	// Every invocation commits its best partition to the node, so on
	// colocate each decision is also a placement: the placement figures
	// equal the decision figures and admit_frac is 1. Whether the
	// partition met QoS is qos_met_frac.
	mixes, busyS := listPass(p.runS, len(colocateList()))
	fig := placementFigures{decisionS: p.runS, placeS: p.runS, busyS: busyS}
	fig.decisions = mixes
	fig.placements = fig.decisions
	fig.into(vals, rep)

	// Decision quality, from the prefix only: it repeats exactly for a
	// seed, however many mixes the budget added.
	prefix := p.results[:p.prefix]
	var windows float64
	for _, res := range prefix {
		windows += float64(res.SamplesUsed)
	}
	vals["windows_per_decision"] = windows / float64(len(prefix))
	vals["windows_per_placement"] = vals["windows_per_decision"]
	vals["admit_frac"] = 1
	var qosFrac, bgRatio float64
	var base int
	rep.info["oracle_s"] = timed(func() { qosFrac, bgRatio, base, err = oracleQuality(p.mixes[:p.prefix], prefix, cals, cfg.workers) })
	if err != nil {
		return nil, err
	}
	vals["qos_met_frac"] = qosFrac
	vals["bg_vs_oracle"] = bgRatio
	checkColocate(rep, p)
	rep.emit(endToEnd, vals)

	rep.info["digest"] = p.digest
	rep.info["mixes"] = len(p.results)
	rep.info["pass_wall_s"] = p.wallS
	rep.info["oracle_satisfiable_mixes"] = base
	return rep, nil
}

// listPass weights every mix of the list equally in the rate: it
// averages the run's decision times per list position and returns the
// number of positions run and the sum of their means, one pass over
// the list. Dividing all decisions by all their time instead would
// tilt the rate towards the head of the list, which a faster host
// runs a second time within the budget and whose 2-LC mixes decide
// in about half the time of the 3-LC mixes at its tail.
func listPass(runS []float64, listLen int) (mixes, busyS float64) {
	total := make([]float64, listLen)
	count := make([]float64, listLen)
	for i, t := range runS {
		total[i%listLen] += t
		count[i%listLen]++
	}
	for j := range total {
		if count[j] > 0 {
			mixes++
			busyS += total[j] / count[j]
		}
	}
	return mixes, busyS
}

// oracleQuality compares each decision with ORACLE's on the same mix.
// qos_met_frac and bg_vs_oracle are over the mixes ORACLE can satisfy;
// a CLITE QoS miss counts 0 in the BG ratio, the convention of the
// paper's Fig. 13. ORACLE runs after all timing and is never timed.
func oracleQuality(mixes []mix, results []core.Result, cals *server.Calibrations, workers int) (qosFrac, bgRatio float64, base int, err error) {
	var met int
	var ratios []float64
	for i, mx := range mixes {
		mach, err := mx.build(cals)
		if err != nil {
			return 0, 0, 0, err
		}
		ref, err := policies.Oracle{Workers: workers}.Run(mach)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("oracle on mix %d (%s): %w", i, mx, err)
		}
		if !ref.QoSMeetable {
			continue
		}
		base++
		res := results[i]
		r := 0.0
		if res.QoSMeetable {
			met++
			r = ratio(meanBG(mach.Jobs(), res.BestObs.NormPerf), meanBG(mach.Jobs(), ref.BestObs.NormPerf))
		}
		ratios = append(ratios, r)
	}
	return ratio(float64(met), float64(base)), mean(ratios), base, nil
}

// meanBG is the mean isolation-normalized throughput of the BG jobs,
// clamped to [0, 1.5] as the experiment harness does.
func meanBG(jobs []server.Job, normPerf []float64) float64 {
	var vals []float64
	for i, j := range jobs {
		if !j.IsLC() && i < len(normPerf) {
			v := normPerf[i]
			if v < 0 {
				v = 0
			}
			if v > 1.5 {
				v = 1.5
			}
			vals = append(vals, v)
		}
	}
	return mean(vals)
}

// checkColocate verifies every chosen partition is a valid
// configuration of the topology for its mix.
func checkColocate(rep *report, p *colocatePass) {
	topo := resource.Default()
	for i, res := range p.results {
		want := len(p.mixes[i].lc) + 1
		rep.check(res.Best.NumJobs() == want, "mix %d: partition covers %d jobs, want %d", i, res.Best.NumJobs(), want)
		if err := res.Best.Validate(topo); err != nil {
			rep.check(false, "mix %d: invalid partition: %v", i, err)
		}
		rep.check(res.SamplesUsed > 0, "mix %d: no observation windows", i)
	}
}

// colocateLayers derives the per-layer table from the traced pass.
// The layer self-times reconstruct core.run_s: server.observe_s is
// the child span, bo.acq_s the acquisition histogram, and
// bo.fit_other_s the remainder (GP update plus bookkeeping), which
// must not be negative.
func colocateLayers(rep *report, untraced, traced *colocatePass) map[string]float64 {
	snap := map[string]telemetry.Metric{}
	for _, m := range traced.reg.Snapshot() {
		snap[m.Name] = m
	}
	runS := traced.spans.total("core.run")
	observeS := traced.spans.total("server.observe")
	acqS := snap["bo_acq_seconds"].Sum
	fitOther := traced.spans.selfTime("core.run") - acqS
	rep.check(fitOther >= 0, "layer times exceed core.run_s: observe %.3fs + acq %.3fs > run %.3fs", observeS, acqS, runS)

	iters := snap["bo_iterations_total"].Value
	appends, refits := snap["bo_fit_appends_total"].Value, snap["bo_fit_refits_total"].Value
	var converged, windows, violating float64
	for _, res := range traced.results {
		if res.Converged {
			converged++
		}
		for _, st := range res.History {
			if st.Failed {
				continue
			}
			windows++
			if !st.Obs.AllQoSMet {
				violating++
			}
		}
	}
	decisions := float64(len(traced.results))
	rep.info["reconstruction"] = map[string]float64{
		"core.run_s": runS, "server.observe_s": observeS, "bo.acq_s": acqS, "bo.fit_other_s": fitOther,
	}
	rep.info["samples"] = map[string]int{"core.run": traced.spans.count("core.run"), "server.observe": traced.spans.count("server.observe")}
	return map[string]float64{
		"core.run_s":                 runS,
		"core.allocs_per_decision":   mean(traced.mallocs),
		"core.converged_frac":        converged / decisions,
		"core.violating_window_frac": ratio(violating, windows),
		"server.observe_s":           observeS,
		"server.windows":             snap["server_windows_total"].Value,
		"bo.acq_s":                   acqS,
		"bo.acq_share":               ratio(acqS, runS),
		"bo.fit_other_s":             fitOther,
		"bo.iterations":              iters,
		"bo.collision_frac":          ratio(snap["bo_seen_collisions_total"].Value, iters),
		"bo.refit_frac":              ratio(refits, appends+refits),
		"trace.overhead_frac":        traced.wallS/untraced.wallS - 1,
	}
}
