package gp

import (
	"errors"
	"fmt"
	"math"

	"clite/internal/linalg"
	"clite/internal/par"
	"clite/internal/stats"
)

// GP is a Gaussian-process regressor. Targets are standardized
// internally, so callers can fit raw objective scores directly.
//
// A model can be conditioned two ways: Fit replaces the training set
// wholesale (O(n³)), Append folds in one more sample via a rank-1
// Cholesky extension (O(n²)). The BO engine appends one observation
// per iteration, which is what turns the per-window surrogate update
// from the dominant cost into noise.
type GP struct {
	kernel Kernel
	noise  float64 // observation noise variance (in standardized units)

	x          [][]float64 // training rows, shared with the caller (see Fit)
	yRaw       []float64   // targets in original units
	yStd       []float64   // standardized targets
	meanY, sdY float64
	jitter     float64 // diagonal jitter applied by the last factorization

	chol  *linalg.Chol
	alpha []float64
	kRow  []float64 // scratch for Append's covariance row

	// kmat/cholBuf are the retained refit scratch: the kernel matrix
	// and factor are rebuilt in place instead of reallocated, so a
	// from-scratch refit (Fit, or Append's fallback) is allocation-free
	// at steady state. chol aliases cholBuf after a successful refit
	// and is nil after a failed one (the no-model sentinel).
	kmat    *linalg.Matrix
	cholBuf *linalg.Chol
}

// ErrNoData is returned by Predict before any Fit.
var ErrNoData = errors.New("gp: model has no training data")

// New returns a GP with the kernel and observation-noise variance.
func New(kernel Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	return &GP{kernel: kernel, noise: noise}
}

// Kernel returns the model's covariance function.
func (g *GP) Kernel() Kernel { return g.kernel }

// Fit conditions the GP on the samples (x[i], y[i]), replacing any
// previous data.
//
// Ownership contract: the GP keeps references to the x rows instead of
// deep-copying them (the BO engine refits every observation window,
// and with the engine already holding stable normalized copies the
// per-refit O(n·d) clone was pure churn). Callers must not mutate a
// row after passing it in; the outer slice itself is copied, so
// appending to the caller's slice is fine.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("gp: bad training set: %d inputs, %d targets", len(x), len(y))
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("gp: input %d has dimension %d, want %d", i, len(xi), dim)
		}
	}
	g.x = append(g.x[:0], x...)
	g.yRaw = append(g.yRaw[:0], y...)
	return g.refit()
}

// refit rebuilds the factorization and weights from g.x/g.yRaw into
// the retained kmat/cholBuf scratch — no per-refit matrix or factor
// allocation once the buffers have grown to the model's size.
func (g *GP) refit() error {
	g.restandardize()
	n := len(g.x)
	if g.kmat == nil {
		g.kmat = &linalg.Matrix{}
	}
	g.kmat.Resize(n, n)
	k := g.kmat
	for i := 0; i < n; i++ {
		// Row i against x[i:] through the dispatch-hoisted batch eval;
		// arguments are ordered (x[j], x[i]) — scaledDistance squares
		// each difference, so the symmetric value is bit-equal.
		row := k.Row(i)[i:]
		kStarInto(g.kernel, g.x[i:], g.x[i], row)
		for j := i + 1; j < n; j++ {
			k.Set(j, i, row[j-i])
		}
		k.Set(i, i, k.At(i, i)+g.noise)
	}
	if g.cholBuf == nil {
		g.cholBuf = linalg.NewChol(n)
	}
	jitter, err := g.cholBuf.Factor(k, 1e-2)
	if err != nil {
		g.chol = nil
		return fmt.Errorf("gp: kernel matrix: %w", err)
	}
	g.chol = g.cholBuf
	g.jitter = jitter
	g.solveAlpha()
	return nil
}

// restandardize recomputes the target standardization over g.yRaw.
func (g *GP) restandardize() {
	g.meanY = stats.Mean(g.yRaw)
	g.sdY = stats.StdDev(g.yRaw)
	if g.sdY < 1e-9 {
		g.sdY = 1
	}
	g.yStd = g.yStd[:0]
	for _, y := range g.yRaw {
		g.yStd = append(g.yStd, (y-g.meanY)/g.sdY)
	}
}

// solveAlpha recomputes alpha = K⁻¹·yStd into the reused buffer.
func (g *GP) solveAlpha() {
	n := len(g.yStd)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveInto(g.yStd, g.alpha)
}

// Append conditions the model on one more sample without refitting:
// the Cholesky factor grows by a rank-1 forward substitution (O(n²))
// and the weights are re-solved against the retained factor. Target
// standardization is recomputed over the extended set, so the
// posterior is numerically the same one a fresh Fit on the extended
// data would produce (byte-identical while the factorization needs no
// new jitter; the incremental-conditioning test pins this).
//
// If the extended kernel matrix stops being positive definite under
// the stored jitter, Append transparently falls back to a full refit
// with a fresh jitter search. The same ownership contract as Fit
// applies to x.
func (g *GP) Append(x []float64, y float64) error {
	if len(g.x) > 0 && len(x) != len(g.x[0]) {
		return fmt.Errorf("gp: appended input has dimension %d, want %d", len(x), len(g.x[0]))
	}
	if g.chol == nil || g.chol.N() != len(g.x) || len(g.x) == 0 {
		// No retained factor (first sample, or a previous fit failed):
		// fall back to a full conditioning on the extended data.
		g.x = append(g.x, x)
		g.yRaw = append(g.yRaw, y)
		return g.refit()
	}
	n := len(g.x)
	if cap(g.kRow) < n {
		g.kRow = make([]float64, 0, 2*n)
	}
	g.kRow = g.kRow[:n]
	kStarInto(g.kernel, g.x, x, g.kRow)
	diag := kernelSelf(g.kernel, x) + g.noise + g.jitter
	g.x = append(g.x, x)
	g.yRaw = append(g.yRaw, y)
	if err := g.chol.AppendRow(g.kRow, diag); err != nil {
		// Sample clusters collapsed the pivot — refactor with a fresh
		// jitter ladder, exactly as a from-scratch Fit would.
		return g.refit()
	}
	g.restandardize()
	g.solveAlpha()
	return nil
}

// N returns the number of conditioned samples.
func (g *GP) N() int { return len(g.x) }

// Noise returns the observation-noise variance.
func (g *GP) Noise() float64 { return g.noise }

// PredictBuf holds the scratch vectors one posterior evaluation needs.
// Reusing a buffer across calls makes Predict allocation-free — the
// acquisition maximizer evaluates the posterior thousands of times per
// BO iteration. A buffer must not be shared between goroutines; give
// each worker its own (they are cheap and grow on demand).
type PredictBuf struct {
	kStar, v []float64
	// kFlat/vFlat are the point-major batch scratch of PredictBatch:
	// m points' covariance rows and solve vectors packed contiguously
	// with stride n.
	kFlat, vFlat []float64
}

func (b *PredictBuf) grow(n int) {
	if cap(b.kStar) < n {
		b.kStar = make([]float64, n)
		b.v = make([]float64, n)
	}
	b.kStar = b.kStar[:n]
	b.v = b.v[:n]
}

func (b *PredictBuf) growBatch(m, n int) {
	if cap(b.kFlat) < m*n {
		b.kFlat = make([]float64, m*n)
		b.vFlat = make([]float64, m*n)
	}
	b.kFlat = b.kFlat[:m*n]
	b.vFlat = b.vFlat[:m*n]
}

// Predict returns the posterior mean and standard deviation at x, in
// the original (unstandardized) target units. It allocates its own
// scratch and is safe for concurrent use; hot paths should hold a
// PredictBuf and call PredictWith instead.
func (g *GP) Predict(x []float64) (mean, std float64, err error) {
	var buf PredictBuf
	return g.PredictWith(&buf, x)
}

// PredictWith is Predict with caller-owned scratch: zero allocations
// once the buffer has grown to the model's size.
func (g *GP) PredictWith(buf *PredictBuf, x []float64) (mean, std float64, err error) {
	if g.chol == nil {
		return 0, 0, ErrNoData
	}
	n := len(g.x)
	buf.grow(n)
	kStarInto(g.kernel, g.x, x, buf.kStar)
	muStd := linalg.Dot(buf.kStar, g.alpha)
	g.chol.SolveLowerInto(buf.kStar, buf.v)
	varStd := kernelSelf(g.kernel, x) - linalg.Dot(buf.v, buf.v)
	if varStd < 0 {
		varStd = 0
	}
	return muStd*g.sdY + g.meanY, math.Sqrt(varStd) * g.sdY, nil
}

// PredictBatch evaluates the posterior at every xs[i], writing into
// means[i] and stds[i] (both must have len(xs)) through one reused
// buffer. It is the bulk form of PredictWith for callers that score
// whole candidate sets — per-point results are bit-equal to
// PredictWith, but the work is restructured around the batch: kernel
// dispatch is hoisted out of the covariance fill, and the forward
// solve runs factor-row-major so each packed Cholesky row is loaded
// once for all m points instead of once per point. Per point, the
// operation chain (covariance order, dot order, substitution order)
// is exactly PredictWith's — only the interleaving across points
// changes, which FP arithmetic cannot observe.
func (g *GP) PredictBatch(xs [][]float64, means, stds []float64, buf *PredictBuf) error {
	if len(means) != len(xs) || len(stds) != len(xs) {
		return fmt.Errorf("gp: PredictBatch needs %d-slot outputs, got %d/%d", len(xs), len(means), len(stds))
	}
	m := len(xs)
	if m == 0 {
		return nil
	}
	if g.chol == nil {
		return ErrNoData
	}
	n := len(g.x)
	buf.growBatch(m, n)
	for j, x := range xs {
		kStarInto(g.kernel, g.x, x, buf.kFlat[j*n:(j+1)*n])
	}
	// Means: each point's dot runs over its contiguous covariance row
	// in the same index order as PredictWith's Dot.
	for j := 0; j < m; j++ {
		means[j] = linalg.Dot(buf.kFlat[j*n:(j+1)*n], g.alpha)*g.sdY + g.meanY
	}
	// Batched forward substitution L·v_j = kStar_j: iterate factor rows
	// outermost so row i is resident while all m points consume it.
	for i := 0; i < n; i++ {
		row := g.chol.Row(i)
		d := row[i]
		for j := 0; j < m; j++ {
			v := buf.vFlat[j*n : j*n+i+1]
			sum := buf.kFlat[j*n+i]
			for k := 0; k < i; k++ {
				sum -= row[k] * v[k]
			}
			v[i] = sum / d
		}
	}
	for j, x := range xs {
		v := buf.vFlat[j*n : (j+1)*n]
		varStd := kernelSelf(g.kernel, x) - linalg.Dot(v, v)
		if varStd < 0 {
			varStd = 0
		}
		stds[j] = math.Sqrt(varStd) * g.sdY
	}
	return nil
}

// LogMarginalLikelihood returns the log evidence of the conditioned
// data under the model (standardized units), the criterion used for
// hyperparameter selection.
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if g.chol == nil {
		return 0, ErrNoData
	}
	n := float64(len(g.yStd))
	return -0.5*linalg.Dot(g.yStd, g.alpha) -
		0.5*g.chol.LogDet() -
		0.5*n*math.Log(2*math.Pi), nil
}

// hyperGrid is the length-scale × noise grid FitMLE and Pool search.
// The grid tops out at 0.6: with inputs normalized to [0,1] a unit
// length scale declares the whole space "as good as sampled",
// collapsing posterior variance and killing acquisition-driven
// exploration in the early iterations.
var hyperGrid = func() []struct{ LengthScale, Noise float64 } {
	lengthScales := []float64{0.1, 0.2, 0.35, 0.6}
	noises := []float64{1e-4, 1e-3, 1e-2}
	grid := make([]struct{ LengthScale, Noise float64 }, 0, len(lengthScales)*len(noises))
	for _, l := range lengthScales {
		for _, nz := range noises {
			grid = append(grid, struct{ LengthScale, Noise float64 }{l, nz})
		}
	}
	return grid
}()

// FitMLE fits GPs across a small hyperparameter grid (length scale ×
// noise) for the given kernel family and returns the model with the
// highest log marginal likelihood. Inputs are assumed normalized to
// [0,1] per dimension (the BO engine guarantees this), which is what
// makes a fixed grid broadly applicable and keeps CLITE free of
// per-job-mix tuning. The grid points are fit concurrently across
// NumCPU-bounded workers.
func FitMLE(family string, x [][]float64, y []float64) (*GP, error) {
	return FitMLEWorkers(family, x, y, 0)
}

// FitMLEWorkers is FitMLE over an explicit worker count (0 means
// NumCPU, 1 forces the sequential path). The selection is a grid-order
// argmax over per-point results, so the returned model is
// byte-identical whatever the worker count — ties and float compares
// are resolved by grid position, never by goroutine arrival order.
func FitMLEWorkers(family string, x [][]float64, y []float64, workers int) (*GP, error) {
	if _, err := KernelByName(family, 1, 1); err != nil {
		return nil, err
	}
	models := make([]*GP, len(hyperGrid))
	lmls := make([]float64, len(hyperGrid))
	errs := make([]error, len(hyperGrid))
	par.ForEach(workers, len(hyperGrid), func(i int) {
		kernel, err := KernelByName(family, hyperGrid[i].LengthScale, 1.0)
		if err != nil {
			errs[i] = err
			return
		}
		model := New(kernel, hyperGrid[i].Noise)
		if err := model.Fit(x, y); err != nil {
			errs[i] = err
			return
		}
		lml, err := model.LogMarginalLikelihood()
		if err != nil {
			errs[i] = err
			return
		}
		models[i] = model
		lmls[i] = lml
	})
	var best *GP
	bestLML := math.Inf(-1)
	var lastErr error
	for i, model := range models {
		if model == nil {
			if errs[i] != nil {
				lastErr = errs[i]
			}
			continue
		}
		if lmls[i] > bestLML {
			bestLML = lmls[i]
			best = model
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: no hyperparameter setting fit the data: %w", lastErr)
	}
	return best, nil
}
