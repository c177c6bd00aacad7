package bo

import (
	"math"
	"reflect"
	"testing"

	"clite/internal/gp"
	"clite/internal/resource"
)

// runTrace captures everything downstream code consumes from a Run.
type runTrace struct {
	keys      []string
	scores    []float64
	bestKey   string
	bestScore float64
	iters     int
	converged bool
}

func traceOf(t *testing.T, topo resource.Topology, nJobs int, opts Options) runTrace {
	t.Helper()
	target := mustTarget(topo, nJobs, opts.Seed+100)
	res, err := Run(topo, nJobs, bowlEval(topo, target), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := runTrace{
		bestKey:   res.Best.Config.Key(),
		bestScore: res.Best.Eval.Score,
		iters:     res.Iterations,
		converged: res.Converged,
	}
	for _, s := range res.Samples {
		tr.keys = append(tr.keys, s.Config.Key())
		tr.scores = append(tr.scores, s.Eval.Score)
	}
	return tr
}

func diffTraces(t *testing.T, label string, a, b runTrace) {
	t.Helper()
	if len(a.keys) != len(b.keys) {
		t.Fatalf("%s: sample counts diverged: %d vs %d", label, len(a.keys), len(b.keys))
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.scores[i] != b.scores[i] {
			t.Fatalf("%s: sample %d diverged: %s (%v) vs %s (%v)",
				label, i, a.keys[i], a.scores[i], b.keys[i], b.scores[i])
		}
	}
	if a.bestKey != b.bestKey || a.bestScore != b.bestScore {
		t.Fatalf("%s: best diverged: %s (%v) vs %s (%v)",
			label, a.bestKey, a.bestScore, b.bestKey, b.bestScore)
	}
	if a.iters != b.iters || a.converged != b.converged {
		t.Fatalf("%s: termination diverged: (%d,%v) vs (%d,%v)",
			label, a.iters, a.converged, b.iters, b.converged)
	}
}

// TestIncrementalFitMatchesRefit replays the samples of seeded runs
// into a fresh engine one at a time and, at every sample count,
// compares engine.fit — rank-1 Cholesky appends against the retained
// fixed-hyperparameter model or grid of models — with a from-scratch
// fit of the same samples: the fixed-hyperparameter Fit below
// mleMinSamples, gp.FitMLEWorkers from there on. Both must select the
// same hyperparameters, and their posteriors must agree to rounding
// error at every sampled point and at the midpoints between them.
func TestIncrementalFitMatchesRefit(t *testing.T) {
	topo := resource.Small()
	const nJobs, tol = 3, 1e-10
	for seed := int64(1); seed <= 4; seed++ {
		opts := Options{Seed: seed, MaxIterations: 20}
		res, err := Run(topo, nJobs, bowlEval(topo, mustTarget(topo, nJobs, seed+100)), opts)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		family := opts.kernelFamily()
		e := newEngine(topo, nJobs)
		e.reset(opts)
		var buf gp.PredictBuf
		for _, s := range res.Samples {
			ev := s.Eval
			if err := e.evaluate(s.Config, func(resource.Config) (Evaluation, error) { return ev, nil }); err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			n := len(e.samples)
			inc, err := e.fit(family)
			if err != nil {
				t.Fatalf("seed %d n=%d: incremental fit: %v", seed, n, err)
			}
			var ref *gp.GP
			if n < mleMinSamples {
				if ref, err = fixedHyperModel(family); err == nil {
					err = ref.Fit(e.normXs[:n], e.ys[:n])
				}
			} else {
				ref, err = gp.FitMLEWorkers(family, e.normXs[:n], e.ys[:n], 1)
			}
			if err != nil {
				t.Fatalf("seed %d n=%d: refit: %v", seed, n, err)
			}
			if inc.Noise() != ref.Noise() || !reflect.DeepEqual(inc.Kernel(), ref.Kernel()) {
				t.Fatalf("seed %d n=%d: selected noise %v kernel %+v, refit selects noise %v kernel %+v",
					seed, n, inc.Noise(), inc.Kernel(), ref.Noise(), ref.Kernel())
			}
			for _, x := range withMidpoints(e.normXs[:n]) {
				im, is, err := inc.PredictWith(&buf, x)
				if err != nil {
					t.Fatalf("incremental predict: %v", err)
				}
				rm, rs, err := ref.PredictWith(&buf, x)
				if err != nil {
					t.Fatalf("refit predict: %v", err)
				}
				if math.Abs(im-rm) > tol || math.Abs(is-rs) > tol {
					t.Fatalf("seed %d n=%d: posterior at %v: incremental (%v, %v) vs refit (%v, %v)",
						seed, n, x, im, is, rm, rs)
				}
			}
		}
	}
}

// withMidpoints returns the rows followed by the midpoint of each
// consecutive pair, so checks cover points off the sampled lattice.
func withMidpoints(rows [][]float64) [][]float64 {
	out := append([][]float64(nil), rows...)
	for i := 1; i < len(rows); i++ {
		mid := make([]float64, len(rows[i]))
		for d := range mid {
			mid[d] = (rows[i-1][d] + rows[i][d]) / 2
		}
		out = append(out, mid)
	}
	return out
}

// TestParallelRunIsByteIdentical runs the engine sequentially
// (Workers=1) and with a worker pool (Workers=8) and demands identical
// traces: the parallel surrogate conditioning and acquisition search
// must not leak goroutine scheduling into any decision.
func TestParallelRunIsByteIdentical(t *testing.T) {
	topo := resource.Small()
	for seed := int64(1); seed <= 3; seed++ {
		seq := traceOf(t, topo, 3, Options{Seed: seed, MaxIterations: 16, Workers: 1})
		par := traceOf(t, topo, 3, Options{Seed: seed, MaxIterations: 16, Workers: 8})
		diffTraces(t, "sequential vs parallel", seq, par)
	}
}
