package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"clite/internal/cluster"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/server"
)

const (
	// churnNodes is the cluster-churn node pool.
	churnNodes = 16
	// churnOccupancy is the number of placed jobs the stream holds the
	// pool at: once it is exceeded, each placement is followed by the
	// departure of a random placed job. At two jobs a node nearly every
	// Place screens a mix the cache has not seen, so the median stays on
	// one path instead of flipping between hits and screens.
	churnOccupancy = 32
	// churnPrefixPerSecond sizes cluster-churn's fixed prefix: 72 Place
	// calls at 60 s of budget. A 2-CPU Xeon at one screen worker makes
	// 2.5–4 a second, with their departures and node failures, so the
	// prefix ends within the budget and further calls fill the rest.
	churnPrefixPerSecond = 1.2
	// churnFailures is how many nodes fail during the prefix, evenly
	// spaced through it.
	churnFailures = 3
	// churnLCP is the chance that a placement request is LC.
	churnLCP = 0.65
)

// churnLoads are the LC load quanta of the cluster-churn menu: every
// LC workload at each of them, distinct profile-cache keys.
var churnLoads = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}

// churnPlaced is one job the benchmark believes is placed: its own
// ledger mirroring the scheduler's per-node request order.
type churnPlaced struct {
	node int
	req  cluster.Request
}

// churnPass is one pass: a fresh scheduler with a private profile
// cache receiving a closed-loop stream — each call issued after the
// previous one returned. The stream's fixed prefix, with its node
// failures, sets the simulated statistics and the digest; while the
// budget lasts, further placements and departures follow.
type churnPass struct {
	placeS   []float64 // host seconds per Place call
	placedS  []float64 // host seconds per Place call that placed
	removeS  []float64
	failS    []float64
	wallS    float64
	placedLC int
	lcQoSMet int
	rehomed  int
	calls    int
	// failWindows are the BO iterations and verify windows FailNode's
	// rehoming spent, read from Stats around each call.
	failWindows int
	prefix      int           // Place calls in the prefix
	prefixLC    int           // placements on a node with an LC job, in the prefix
	prefixQoS   int           // of those, the ones whose partition met QoS
	stats       cluster.Stats // at the end of the prefix
	final       cluster.Stats // at the end of the pass
	digest      string        // of the prefix's events
	// Traced passes only, per Place call.
	screened []bool // Stats.Screens advanced during the call
	mallocs  []float64
}

// newChurnScheduler builds a scheduler over a fresh calibration store
// and a private profile cache, with every menu workload calibrated and
// its solo profiles (the pre-filter's admission bounds) computed.
func newChurnScheduler(seed int64, workers int) (*cluster.Scheduler, error) {
	cals := server.NewCalibrations()
	cache := profile.NewCache(resource.Default())
	for _, w := range lcWorkloads {
		m := server.NewShared(resource.Default(), server.DefaultSpec(), seed, cals)
		if _, err := m.AddLC(w, 0.1); err != nil {
			return nil, err
		}
		for _, load := range churnLoads {
			if _, err := cache.Solo(w, load); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range bgWorkloads {
		if _, err := cache.Solo(w, 0); err != nil {
			return nil, err
		}
	}
	return cluster.New(cluster.Options{
		Nodes:              churnNodes,
		Seed:               seed,
		ScreenWorkers:      workers,
		SharedProfiles:     cache,
		SharedCalibrations: cals,
	}), nil
}

// churnStream drives one pass of Place calls. The stream is a function
// of the seed and of the scheduler's deterministic answers.
type churnStream struct {
	s      *cluster.Scheduler
	rng    *rand.Rand
	p      *churnPass
	d      *digest
	placed []churnPlaced
	traced bool
}

// runChurnPass runs the stream's prefix of places Place calls, then
// more while another one still fits in budget seconds; a budget of 0
// runs the prefix alone.
func runChurnPass(s *cluster.Scheduler, seed int64, places int, traced bool, budget float64) (*churnPass, error) {
	st := &churnStream{
		s:      s,
		rng:    rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		p:      &churnPass{prefix: places},
		d:      newDigest(),
		traced: traced,
	}
	failEvery := places / (churnFailures + 1)
	start := time.Now()
	for i := 0; i < places || budget > 0 && another(start, budget, i); i++ {
		if i == places {
			st.endPrefix()
		}
		if failEvery > 0 && i > 0 && i%failEvery == 0 && i/failEvery <= churnFailures {
			if err := st.failNode(); err != nil {
				return st.p, err
			}
		}
		if err := st.place(); err != nil {
			return st.p, err
		}
		for len(st.placed) > churnOccupancy {
			if err := st.remove(); err != nil {
				return st.p, err
			}
		}
	}
	st.p.wallS = time.Since(start).Seconds()
	if st.p.digest == "" {
		st.endPrefix()
	}
	st.p.final = s.Stats()
	return st.p, nil
}

// endPrefix records the simulated statistics and the digest of the
// stream so far.
func (st *churnStream) endPrefix() {
	p := st.p
	p.stats = st.s.Stats()
	p.prefixLC, p.prefixQoS = p.placedLC, p.lcQoSMet
	p.digest = st.d.sum()
}

func (st *churnStream) place() error {
	p := st.p
	req := churnRequest(st.rng)
	var before cluster.Stats
	var meter allocMeter
	if st.traced {
		before = st.s.Stats()
		meter.start()
	}
	var pl cluster.Placement
	var err error
	dt := timed(func() { pl, err = st.s.Place(req) })
	if st.traced {
		n, _ := meter.stop()
		p.mallocs = append(p.mallocs, float64(n))
		p.screened = append(p.screened, st.s.Stats().Screens > before.Screens)
	}
	p.calls++
	p.placeS = append(p.placeS, dt)
	if errors.Is(err, cluster.ErrUnplaceable) {
		st.d.line("place %s@%.2f rejected", req.Workload, req.Load)
		return nil
	}
	if err != nil {
		return fmt.Errorf("Place(%s@%.2f): %w", req.Workload, req.Load, err)
	}
	p.placedS = append(p.placedS, dt)
	st.placed = append(st.placed, churnPlaced{pl.Node, req})
	jobs := st.nodeJobs(pl.Node)
	if n := pl.Result.Best.NumJobs(); n != len(jobs) {
		return fmt.Errorf("Place(%s) on node %d: partition covers %d jobs, the node holds %d", req.Workload, pl.Node, n, len(jobs))
	}
	if err := pl.Result.Best.Validate(resource.Default()); err != nil {
		return fmt.Errorf("Place(%s) on node %d: invalid partition: %w", req.Workload, pl.Node, err)
	}
	if anyLC(jobs) {
		p.placedLC++
		if pl.Result.QoSMeetable {
			p.lcQoSMet++
		}
	}
	st.d.line("place %s@%.2f -> %d %s qos=%t", req.Workload, req.Load, pl.Node, pl.Result.Best.Key(), pl.Result.QoSMeetable)
	return nil
}

// remove releases a random placed job: its service time ended.
func (st *churnStream) remove() error {
	k := st.rng.Intn(len(st.placed))
	j := st.placed[k]
	var err error
	st.p.removeS = append(st.p.removeS, timed(func() { err = st.s.Remove(j.node, j.req) }))
	st.p.calls++
	if err != nil {
		return fmt.Errorf("Remove(%d, %s): %w", j.node, j.req.Workload, err)
	}
	st.placed = append(st.placed[:k], st.placed[k+1:]...)
	st.d.line("remove %s@%.2f from %d", j.req.Workload, j.req.Load, j.node)
	return nil
}

// failNode kills a random live node and follows its jobs' rehoming.
func (st *churnStream) failNode() error {
	var live []int
	for _, n := range st.s.Snapshot() {
		if !n.Failed {
			live = append(live, n.ID)
		}
	}
	id := live[st.rng.Intn(len(live))]
	var outs []cluster.Outcome
	var err error
	before := st.s.Stats()
	st.p.failS = append(st.p.failS, timed(func() { outs, err = st.s.FailNode(id) }))
	st.p.calls++
	if err != nil {
		return fmt.Errorf("FailNode(%d): %w", id, err)
	}
	after := st.s.Stats()
	st.p.failWindows += after.BOIterations + after.VerifyWindows - before.BOIterations - before.VerifyWindows
	st.d.line("fail %d", id)
	for _, o := range outs {
		k := -1
		for i, j := range st.placed {
			if j.node == o.From && j.req == o.Request {
				k = i
				break
			}
		}
		if k < 0 {
			return fmt.Errorf("FailNode(%d) drained %s, which was not placed there", id, o.Request.Workload)
		}
		j := st.placed[k]
		st.placed = append(st.placed[:k], st.placed[k+1:]...)
		switch {
		case o.Err == nil:
			// A rehomed job joins the end of its new node's list.
			j.node = o.Node
			st.placed = append(st.placed, j)
			st.p.rehomed++
		case !errors.Is(o.Err, cluster.ErrUnplaceable):
			return fmt.Errorf("FailNode(%d) rehoming %s: %w", id, o.Request.Workload, o.Err)
		}
		st.d.line("  %s@%.2f -> %d", o.Request.Workload, o.Request.Load, o.Node)
	}
	return nil
}

// nodeJobs lists the node's jobs in the order the scheduler holds them.
func (st *churnStream) nodeJobs(node int) []cluster.Request {
	var out []cluster.Request
	for _, j := range st.placed {
		if j.node == node {
			out = append(out, j.req)
		}
	}
	return out
}

// anyLC reports whether any job of a node is latency-critical.
func anyLC(jobs []cluster.Request) bool {
	for _, j := range jobs {
		if j.IsLC() {
			return true
		}
	}
	return false
}

// churnRequest draws one request from the wide menu.
func churnRequest(rng *rand.Rand) cluster.Request {
	if rng.Float64() < churnLCP {
		return cluster.Request{
			Workload: lcWorkloads[rng.Intn(len(lcWorkloads))],
			Load:     churnLoads[rng.Intn(len(churnLoads))],
		}
	}
	return cluster.Request{Workload: bgWorkloads[rng.Intn(len(bgWorkloads))]}
}

func runClusterChurn(cfg config) (*report, error) {
	rep := newReport()
	// At least two placements a node, so the pool fills.
	places := int(cfg.seconds*churnPrefixPerSecond + 0.5)
	if places < 2*churnNodes {
		places = 2 * churnNodes
	}
	rep.info["prefix_places"] = places
	rep.info["nodes"] = churnNodes

	var sched *cluster.Scheduler
	setupS, err := setupMedian(func() error {
		var err error
		sched, err = newChurnScheduler(cfg.seed, cfg.screenWorkers)
		return err
	})
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		var passes [2]*churnPass
		for i := range passes {
			s, err := newChurnScheduler(cfg.seed, cfg.screenWorkers)
			if err != nil {
				return nil, err
			}
			p, err := runChurnPass(s, cfg.seed, places, i == 1, 0)
			if rep.calls(p.calls, err) {
				rep.emit(perLayer, nil)
				return rep, nil
			}
			passes[i] = p
		}
		rep.check(passes[1].digest == passes[0].digest, "traced pass decided differently (digest %s, untraced %s)", passes[1].digest, passes[0].digest)
		checkChurn(rep, passes[0])
		vals := churnLayers(rep, passes[0], passes[1])
		rep.emit(perLayer, vals)
		rep.emit(churnLayer, vals)
		rep.info["digest"] = passes[0].digest
		return rep, nil
	}

	p, err := runChurnPass(sched, cfg.seed, places, false, cfg.seconds)
	if rep.calls(p.calls, err) {
		rep.emit(endToEnd, nil)
		return rep, nil
	}
	vals := map[string]float64{"setup_s": setupS, "peak_rss_mb": peakRSSMB()}
	fig := placementFigures{
		decisionS:  p.placeS,
		placeS:     p.placedS,
		busyS:      sum(p.placeS) + sum(p.removeS),
		decisions:  float64(len(p.placeS)),
		placements: float64(len(p.placedS)),
	}
	fig.into(vals, rep)

	// The simulated statistics come from the prefix. FailNode's
	// rehoming is timed and counted on its own (cluster.failnode_s,
	// cluster.rehomed): three large events would otherwise dominate the
	// admission figures.
	st := p.stats
	windows := float64(st.BOIterations + st.VerifyWindows - p.failWindows)
	vals["windows_per_decision"] = windows / float64(p.prefix)
	vals["windows_per_placement"] = ratio(windows, float64(st.Placements))
	vals["admit_frac"] = float64(st.Placements) / float64(p.prefix)
	vals["qos_met_frac"] = ratio(float64(p.prefixQoS), float64(p.prefixLC))
	vals["bg_vs_oracle"] = bgVsOracleUndefined
	checkChurn(rep, p)
	rep.emit(endToEnd, vals)

	rep.info["digest"] = p.digest
	rep.info["place_calls"] = len(p.placeS)
	rep.info["pass_wall_s"] = p.wallS
	rep.info["prefix_stats"] = st
	return rep, nil
}

// checkChurn verifies the scheduler's ledger against the stream.
func checkChurn(rep *report, p *churnPass) {
	st := p.final
	rep.check(st.Placements+st.Rejections == len(p.placeS), "placements %d + rejections %d != %d Place calls", st.Placements, st.Rejections, len(p.placeS))
	rep.check(st.Placements == len(p.placedS), "scheduler counted %d placements, the stream saw %d", st.Placements, len(p.placedS))
}

// churnLayers derives the per-layer table from the traced pass, by
// diffing the scheduler's Stats around each Place call.
func churnLayers(rep *report, untraced, traced *churnPass) map[string]float64 {
	var cachedS, screenedS float64
	var nCached, nScreened int
	for i, dt := range traced.placeS {
		if traced.screened[i] {
			screenedS += dt
			nScreened++
		} else {
			cachedS += dt
			nCached++
		}
	}
	st := traced.stats
	lookups := float64(st.CacheHits + st.CacheMisses)
	rep.info["samples"] = map[string]int{
		"place_cached": nCached, "place_screened": nScreened,
		"remove": len(traced.removeS), "failnode": len(traced.failS),
	}
	return map[string]float64{
		"cluster.place_cached_s":    cachedS,
		"cluster.place_screened_s":  screenedS,
		"cluster.remove_s":          sum(traced.removeS),
		"cluster.failnode_s":        sum(traced.failS),
		"cluster.screens_per_place": float64(st.Screens) / float64(len(traced.placeS)),
		"cluster.warm_screen_frac":  ratio(float64(st.WarmScreens), float64(st.Screens)),
		"cluster.prefilter_rejects": float64(st.PrefilterRejects),
		"cluster.verify_windows":    float64(st.VerifyWindows),
		"cluster.rehomed":           float64(traced.rehomed),
		"cluster.allocs_per_place":  mean(traced.mallocs),
		"profile.lookups":           lookups,
		"profile.hit_rate":          ratio(float64(st.CacheHits), lookups),
		"profile.near_hit_rate":     ratio(float64(st.CacheNearHits), lookups),
		"bo.iterations":             float64(st.BOIterations),
		"server.windows":            float64(st.BOIterations + st.VerifyWindows),
		"trace.overhead_frac":       traced.wallS/untraced.wallS - 1,
	}
}
