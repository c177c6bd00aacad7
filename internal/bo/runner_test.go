package bo

import (
	"math"
	"testing"

	"clite/internal/resource"
)

// TestBatchedEIMatchesScalar checks that the batched acquisition
// objectives are bit-equal to their per-point forms: batching
// restructures only the scheduling across probe points, never a
// point's operation chain. The rows are the sampled configurations of
// seeded runs plus the midpoints between consecutive ones, scored
// against the surrogate each run ends on — the fixed-hyperparameter
// model after a short run, the MLE-selected one after a long run.
func TestBatchedEIMatchesScalar(t *testing.T) {
	topo := resource.Small()
	const nJobs = 3
	r, err := NewRunner(topo, nJobs)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	e := r.e
	for seed := int64(1); seed <= 4; seed++ {
		for _, iters := range []int{1, 20} {
			opts := Options{Seed: seed, MaxIterations: iters}
			if _, err := r.Run(bowlEval(topo, mustTarget(topo, nJobs, seed+100)), opts); err != nil {
				t.Fatalf("Runner.Run: %v", err)
			}
			model, err := e.fit(opts.kernelFamily())
			if err != nil {
				t.Fatalf("fit: %v", err)
			}
			_, bestMean := e.bestByPosterior(model)
			e.curModel, e.curBestMean, e.acq = model, bestMean, opts.acquisition()

			var vecs [][]float64
			for _, s := range e.samples {
				vecs = append(vecs, s.Config.Vector())
			}
			rows := withMidpoints(vecs)
			ei := make([]float64, len(rows))
			mean := make([]float64, len(rows))
			e.eiBatch(rows, ei)
			e.meanBatch(rows, mean)
			for i, x := range rows {
				if want := e.eiObjective(x); math.Float64bits(ei[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d iters %d row %d: eiBatch %v, eiObjective %v", seed, iters, i, ei[i], want)
				}
				if want := e.meanObjective(x); math.Float64bits(mean[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d iters %d row %d: meanBatch %v, meanObjective %v", seed, iters, i, mean[i], want)
				}
			}
		}
	}
}

// TestRunnerReuseMatchesFreshRuns drives one Runner through several
// runs (alternating worker counts to exercise the pool rebuild) and
// demands each matches a fresh bo.Run byte for byte: arena reuse must
// be invisible in every decision.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	topo := resource.Small()
	r, err := NewRunner(topo, 3)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		opts := Options{Seed: seed, MaxIterations: 16, Workers: int(seed%2)*3 + 1}
		want := traceOf(t, topo, 3, opts)
		res, err := r.Run(bowlEval(topo, mustTarget(topo, 3, opts.Seed+100)), opts)
		if err != nil {
			t.Fatalf("Runner.Run: %v", err)
		}
		got := runTrace{
			bestKey:   res.Best.Config.Key(),
			bestScore: res.Best.Eval.Score,
			iters:     res.Iterations,
			converged: res.Converged,
		}
		for _, s := range res.Samples {
			got.keys = append(got.keys, s.Config.Key())
			got.scores = append(got.scores, s.Eval.Score)
		}
		diffTraces(t, "reused runner vs fresh run", want, got)
	}
}

// TestRunnerSteadyStateAllocs pins the warmed Runner's allocation
// behaviour: with an allocation-free evaluator, a whole run through
// reused arenas must stay within a small fixed budget (the per-run
// RNG and acquisition boxing plus a handful of per-iteration closure
// captures) — nothing may scale with samples or iterations anymore.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool shedding)")
	}
	topo := resource.Small()
	const nJobs = 2
	target := mustTarget(topo, nJobs, 55)
	norm := 0.0
	for _, a := range target.Jobs {
		for r := range a {
			u := float64(topo[r].Units)
			norm += u * u
		}
	}
	// The engine copies JobPerf out of every Evaluation, so the
	// evaluator may reuse one slice across calls.
	jobPerf := make([]float64, nJobs)
	eval := func(cfg resource.Config) (Evaluation, error) {
		var d float64
		for j := range cfg.Jobs {
			var dj float64
			for r := range cfg.Jobs[j] {
				diff := float64(cfg.Jobs[j][r] - target.Jobs[j][r])
				dj += diff * diff
			}
			jobPerf[j] = 1 - dj/norm
			d += dj
		}
		return Evaluation{Score: 1 - d/norm, JobPerf: jobPerf}, nil
	}
	r, err := NewRunner(topo, nJobs)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	opts := Options{Seed: 7, MaxIterations: 6, Workers: 1}
	run := func() {
		if _, err := r.Run(eval, opts); err != nil {
			t.Fatalf("Runner.Run: %v", err)
		}
	}
	run() // warm the arenas
	allocs := testing.AllocsPerRun(5, run)
	// ~6 bootstrap evaluations + 6 iterations + the closing fit; the
	// old engine allocated ~850 per iteration. The budget covers the
	// per-run fixtures (RNG, acquisition boxing, telemetry lookups)
	// and a few closure captures per Maximize call.
	if allocs > 60 {
		t.Fatalf("steady-state Run allocated %.1f times (want ≤ 60 fixed costs)", allocs)
	}
}
