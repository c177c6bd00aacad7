// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. 5), one per experiment, at coarse (benchmark)
// resolution — run `go test -bench=. -benchmem` and read the reported
// time as "cost to regenerate this figure". cmd/experiments produces
// the full-resolution versions. Micro-benchmarks for the hot
// components (GP fit/predict, acquisition maximization, observation
// windows, ORACLE sweeps) sit at the bottom.
package clite_test

import (
	"testing"

	"clite"
	"clite/internal/benchmarks"
	"clite/internal/resource"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := clite.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(clite.ExperimentConfig{Seed: 1, Coarse: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkTable1Resources(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Testbed(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable3Workloads(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFig6QoSCurves(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7Colocation(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8ColocationWithBG(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9aAllocation(b *testing.B)      { benchExperiment(b, "fig9a") }
func BenchmarkFig9bConvergence(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig10LCPerformance(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Variability(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12BGHeatmap(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13BGPerformance(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14MultiBG(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15aOverhead(b *testing.B)       { benchExperiment(b, "fig15a") }
func BenchmarkFig15bQualityTrace(b *testing.B)   { benchExperiment(b, "fig15b") }
func BenchmarkFig16DynamicLoad(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkAblationDesignChoices(b *testing.B) {
	benchExperiment(b, "ablation")
}

// BenchmarkDOEComparison regenerates the Sec. 5.2 FFD/RSM comparison.
func BenchmarkDOEComparison(b *testing.B) { benchExperiment(b, "doe") }

// BenchmarkObservationWindow measures the simulated cost of one
// observation window (the evaluation step of Algorithm 1).
func BenchmarkObservationWindow(b *testing.B) {
	m := clite.NewMachine(1)
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddLC("masstree", 0.2); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddBG("canneal"); err != nil {
		b.Fatal(err)
	}
	cfg := resource.EqualSplit(m.Topology(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreFunction measures the Eq. 3 evaluation itself.
func BenchmarkScoreFunction(b *testing.B) {
	m := clite.NewMachine(3)
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddBG("swaptions"); err != nil {
		b.Fatal(err)
	}
	obs, err := m.ObserveIdeal(resource.EqualSplit(m.Topology(), 2))
	if err != nil {
		b.Fatal(err)
	}
	jobs := m.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clite.Score(jobs, obs)
	}
}

// The hot-path benchmarks are defined once, in internal/benchmarks;
// these wrappers time the same definitions cmd/bench serializes.
func BenchmarkGPFit(b *testing.B)               { benchmarks.Bench(b, "GPFit") }
func BenchmarkGPPredict(b *testing.B)           { benchmarks.Bench(b, "GPPredict") }
func BenchmarkAcquisitionMaximize(b *testing.B) { benchmarks.Bench(b, "AcquisitionMaximize") }
func BenchmarkOracleSweep(b *testing.B)         { benchmarks.Bench(b, "OracleSweep") }
func BenchmarkBOEngineIteration(b *testing.B)   { benchmarks.Bench(b, "BOEngineIteration") }
func BenchmarkCLITERun(b *testing.B)            { benchmarks.Bench(b, "CLITERun") }

var sinkTables []clite.ExperimentTable

// Example of regenerating a figure programmatically (also keeps the
// table-rendering path exercised under -bench).
func BenchmarkTableRendering(b *testing.B) {
	exp, err := clite.LookupExperiment("table3")
	if err != nil {
		b.Fatal(err)
	}
	tables, err := exp.Run(clite.ExperimentConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			n += len(t.String())
		}
	}
	if n == 0 {
		b.Fatal("no output")
	}
	sinkTables = tables
}
