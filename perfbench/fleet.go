package main

import (
	"fmt"
	"time"

	"clite/internal/fleet"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/telemetry"
)

const (
	// fleetNodes is each fleet's size, in 64-node cells (the default).
	// A fleet this size fills for about half a second of host time, long
	// enough that a brief stall of the host moves one fleet's figures
	// little.
	fleetNodes = 8192
	// fleetHorizon is each fleet's simulated horizon in seconds. Keep
	// it short: past about 60 s the fleet fills, screens dominate and
	// the workload turns BO-bound. Lengthen a run with more fleets.
	fleetHorizon = 20.0
	// fleetPrefixPerSecond sizes fleet-cached's fixed prefix: 36 fleets
	// at 60 s of budget. A 2-CPU Xeon at two shards fills 1.3–2.5
	// fleets a second, so the prefix ends well within the budget and
	// further fleets fill the rest.
	fleetPrefixPerSecond = 0.6
)

// fleetRun is one fleet: built, filled, summarized.
type fleetRun struct {
	newS, runS float64
	sum        fleet.Summary
	hub        *profile.Cache
	lc, lcOK   int // LC placements, and those that met QoS
	// Traced runs only.
	epochS          []float64
	mallocs, allocB uint64
}

// fleetPass is the run's fixed prefix of fleets, then, while the
// budget lasts, further fleets under their own seeds.
type fleetPass struct {
	runs   []fleetRun
	prefix int
	wallS  float64
	digest string // of the prefix's decisions
}

// warmHub builds a hub profile cache holding the solo profiles of the
// default traffic menu.
func warmHub() (*profile.Cache, error) {
	hub := profile.NewCache(resource.Default())
	for _, j := range fleet.DefaultMenu() {
		if _, err := hub.Solo(j.Workload, j.Load); err != nil {
			return nil, err
		}
	}
	return hub, nil
}

// runFleetPass fills the prefix's fleets, then more while another one
// still fits in budget seconds; a budget of 0 runs the prefix alone.
// Each fleet is checked into rep as it completes, unless rep is nil.
func runFleetPass(rep *report, seed int64, prefix, shards int, traced bool, budget float64) (*fleetPass, int, error) {
	p := &fleetPass{prefix: prefix}
	d := newDigest()
	calls := 0
	start := time.Now()
	for i := 0; i < prefix || budget > 0 && another(start, budget, i); i++ {
		var r fleetRun
		opts := fleet.Options{
			Nodes:    fleetNodes,
			Shards:   shards,
			Seed:     seed*1_000_003 + int64(i)*104_729,
			Duration: fleetHorizon,
		}
		var last time.Time
		if traced {
			opts.Trace = telemetry.NewTracer()
			opts.Trace.SetTap(func(ev telemetry.Event) {
				if ev.Kind == telemetry.KindFleetEpoch {
					now := time.Now()
					r.epochS = append(r.epochS, now.Sub(last).Seconds())
					last = now
				}
			})
		}
		// Set-up: the hub profile cache with the menu's solo profiles
		// (the pre-filter's admission bounds), then the fleet itself.
		var f *fleet.Fleet
		var err error
		r.newS = timed(func() {
			if r.hub, err = warmHub(); err != nil {
				return
			}
			opts.SharedProfiles = r.hub
			f, err = fleet.New(opts)
		})
		calls++
		if err != nil {
			return p, calls, fmt.Errorf("fleet %d: New: %w", i, err)
		}
		var meter allocMeter
		if traced {
			meter.start()
		}
		calls++
		last = time.Now()
		r.runS = timed(func() { r.sum, err = f.Run() })
		if err != nil {
			return p, calls, fmt.Errorf("fleet %d: Run: %w", i, err)
		}
		if traced {
			r.mallocs, r.allocB = meter.stop()
		}
		if s := r.sum; i < prefix {
			d.line("fleet %d arrivals=%d placements=%d rejections=%d lost=%d retries=%d entries=%d",
				i, s.Arrivals, s.Placements, s.Rejections, s.Lost, s.Retries, s.CacheEntries)
			for _, dec := range s.Decisions {
				d.line("%d %.6f %s %.2f %d %d %d %t", dec.Job, dec.At, dec.Workload, dec.Load, dec.Cell, dec.Node, dec.Attempt, dec.QoSOK)
			}
		}
		for _, dec := range r.sum.Decisions {
			if dec.Load > 0 {
				r.lc++
				if dec.QoSOK {
					r.lcOK++
				}
			}
		}
		if rep != nil {
			checkFleet(rep, i, r.sum, r.hub)
		}
		// The prefix's fleets keep their decision logs and profile
		// caches, as a caller of Run would, so peak RSS measures a fixed
		// working set; later fleets drop theirs once checked, so it does
		// not grow with the number of fleets the budget allows.
		if i >= prefix {
			r.sum.Decisions, r.hub = nil, nil
		}
		p.runs = append(p.runs, r)
	}
	p.wallS = time.Since(start).Seconds()
	p.digest = d.sum()
	return p, calls, nil
}

func runFleetCached(cfg config) (*report, error) {
	rep := newReport()
	prefix := int(cfg.seconds*fleetPrefixPerSecond + 0.5)
	if prefix < 2 {
		prefix = 2
	}
	rep.info["prefix_fleets"] = prefix
	rep.info["fleet_nodes"] = fleetNodes
	rep.info["fleet_horizon_s"] = fleetHorizon

	if cfg.trace {
		untraced, calls, err := runFleetPass(rep, cfg.seed, prefix, cfg.workers, false, 0)
		if rep.calls(calls, err) {
			rep.emit(perLayer, nil)
			return rep, nil
		}
		traced, calls, err := runFleetPass(nil, cfg.seed, prefix, cfg.workers, true, 0)
		if rep.calls(calls, err) {
			rep.emit(perLayer, nil)
			return rep, nil
		}
		rep.check(traced.digest == untraced.digest, "traced pass decided differently (digest %s, untraced %s)", traced.digest, untraced.digest)
		rep.emit(perLayer, fleetLayers(rep, untraced, traced))
		rep.info["digest"] = untraced.digest
		return rep, nil
	}

	p, calls, err := runFleetPass(rep, cfg.seed, prefix, cfg.workers, false, cfg.seconds)
	if rep.calls(calls, err) {
		rep.emit(endToEnd, nil)
		return rep, nil
	}
	vals := map[string]float64{"peak_rss_mb": peakRSSMB()}
	var fig placementFigures
	var newS []float64
	for _, r := range p.runs {
		newS = append(newS, r.newS)
		fig.decisionS = append(fig.decisionS, r.runS/float64(r.sum.Arrivals))
		fig.placeS = append(fig.placeS, r.runS/float64(r.sum.Placements))
		fig.busyS += r.runS
		fig.decisions += float64(r.sum.Arrivals)
		fig.placements += float64(r.sum.Placements)
	}
	fig.into(vals, rep)
	vals["setup_s"] = median(newS)

	// The simulated statistics come from the prefix: they repeat exactly
	// for a seed, however many fleets the budget added.
	var arrivals, placements, windows, lc, lcOK float64
	for _, r := range p.runs[:p.prefix] {
		s := r.sum
		arrivals += float64(s.Arrivals)
		placements += float64(s.Placements)
		windows += float64(s.Cluster.BOIterations + s.Cluster.VerifyWindows)
		lc += float64(r.lc)
		lcOK += float64(r.lcOK)
	}
	vals["windows_per_decision"] = windows / arrivals
	vals["windows_per_placement"] = ratio(windows, placements)
	vals["admit_frac"] = placements / arrivals
	vals["qos_met_frac"] = ratio(lcOK, lc)
	vals["bg_vs_oracle"] = bgVsOracleUndefined
	rep.emit(endToEnd, vals)

	rep.info["digest"] = p.digest
	rep.info["fleets"] = len(p.runs)
	rep.info["pass_wall_s"] = p.wallS
	rep.info["setup_samples"] = len(newS)
	rep.info["prefix_arrivals"] = arrivals
	return rep, nil
}

// checkFleet verifies one fleet's ledger: every arrival is placed,
// rejected or lost; every LC decision met QoS; every cached partition
// is valid for its mix.
func checkFleet(rep *report, i int, s fleet.Summary, hub *profile.Cache) {
	topo := resource.Default()
	rep.check(s.Arrivals == s.Placements+s.Rejections+s.Lost, "fleet %d: arrivals %d != placements %d + rejections %d + lost %d", i, s.Arrivals, s.Placements, s.Rejections, s.Lost)
	rep.check(s.Placements > 0, "fleet %d placed nothing", i)
	rep.check(len(s.Decisions) == s.Placements, "fleet %d: %d decisions logged for %d placements", i, len(s.Decisions), s.Placements)
	for _, dec := range s.Decisions {
		rep.check(dec.Load == 0 || dec.QoSOK, "fleet %d: LC job %d (%s) placed without QoS", i, dec.Job, dec.Workload)
	}
	entries, _ := hub.EntriesSince(0)
	for _, e := range entries {
		if !e.Feasible {
			continue
		}
		if err := e.Result.Best.Validate(topo); err != nil || e.Result.Best.NumJobs() != len(e.Jobs) {
			rep.check(false, "fleet %d: cached partition for %s invalid (%v)", i, e.Key, err)
		}
	}
}

// fleetLayers derives the per-layer table from the traced pass: host
// time of New and Run, epoch times from the FleetEpoch tap, heap
// counters around Run, and the cells' pipeline counters from Summary.
func fleetLayers(rep *report, untraced, traced *fleetPass) map[string]float64 {
	var newS, runS float64
	var epochs []float64
	var mallocs, allocB uint64
	var nEpochs, retries, lost, placements int
	var cl struct{ screens, verify, hits, misses, bo, places int }
	for _, r := range traced.runs {
		s := r.sum
		newS += r.newS
		runS += r.runS
		epochs = append(epochs, r.epochS...)
		mallocs += r.mallocs
		allocB += r.allocB
		nEpochs += s.Epochs
		retries += s.Retries
		lost += s.Lost
		placements += s.Placements
		c := s.Cluster
		cl.screens += c.Screens
		cl.verify += c.VerifyWindows
		cl.hits += c.CacheHits
		cl.misses += c.CacheMisses
		cl.bo += c.BOIterations
		cl.places += c.Placements + c.Rejections
	}
	lookups := float64(cl.hits + cl.misses)
	tail := tailFraction(len(epochs))
	rep.info["samples"] = map[string]int{"fleet.epoch": len(epochs), "fleet.run": len(traced.runs)}
	rep.info["epoch_s_tail_percentile"] = 100 * tail
	// A filling fleet without node deaths neither retries nor loses
	// jobs; the counts are recorded, not registered.
	rep.info["fleet_retries"] = retries
	rep.info["fleet_lost"] = lost
	return map[string]float64{
		"fleet.new_s":                newS,
		"fleet.run_s":                runS,
		"fleet.epoch_s_p50":          median(epochs),
		"fleet.epoch_s_tail":         quantile(epochs, tail),
		"fleet.epochs":               float64(nEpochs),
		"fleet.allocs_per_placement": ratio(float64(mallocs), float64(placements)),
		"fleet.alloc_mb":             float64(allocB) / float64(len(traced.runs)) / (1 << 20),
		"cluster.screens_per_place":  ratio(float64(cl.screens), float64(cl.places)),
		"cluster.verify_windows":     float64(cl.verify),
		"profile.lookups":            lookups,
		"profile.hit_rate":           ratio(float64(cl.hits), lookups),
		"bo.iterations":              float64(cl.bo),
		"server.windows":             float64(cl.bo + cl.verify),
		"trace.overhead_frac":        traced.wallS/untraced.wallS - 1,
	}
}
