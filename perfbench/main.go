// Command perfbench is the repository benchmark. It drives the CLITE
// program only through its public entry points — core.Controller.Run,
// cluster.Scheduler Place/Remove/FailNode, fleet.New/Fleet.Run and a
// server.Observer wrapper — times those calls from outside, checks
// their outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// telemetry attached. With -trace 1 the run's fixed prefix of work
// runs once untraced and once traced, and the metrics are the
// per-layer set plus the tracing overhead. README.md documents every
// metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark invocation. The worker counts are fixed by
// run; the tests set them directly to show that decisions do not
// depend on them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is colocate's BO workers, fleet-cached's shards and
	// ORACLE's workers.
	workers int
	// screenWorkers is cluster-churn's cluster.Options.ScreenWorkers.
	// One screens candidates in order and stops at the first feasible
	// one; more screen every candidate speculatively, which on a 2-CPU
	// host makes Place several times slower for identical decisions.
	screenWorkers int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"colocate":      runColocate,
	"fleet-cached":  runFleetCached,
	"cluster-churn": runClusterChurn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{workers: defaultWorkers(), screenWorkers: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 60, "measurement budget in host seconds; also sizes the fixed prefix of work")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	cfg.trace = trace == 1
	return execute(cfg, stdout, stderr)
}

// execute runs one configured workload and writes its report.
func execute(cfg config, stdout, stderr io.Writer) int {
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["seconds"] = cfg.seconds
	rep.info["trace"] = cfg.trace
	rep.info["workers"] = cfg.workers
	rep.info["screen_workers"] = cfg.screenWorkers
	rep.info["nproc"] = runtime.NumCPU()
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultWorkers is two, or nproc when the host has fewer CPUs: the
// same count on every host with at least two, so figures compare.
func defaultWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run: the operation ledger, the output
// checks, the metrics, and informational records (sample counts,
// percentiles, digest) printed ahead of the result line.
type report struct {
	attempted, failed int
	violations        []string
	metrics           []metric
	info              map[string]any
}

func newReport() *report { return &report{info: map[string]any{}} }

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// check records a violated output check; any violation makes the run
// incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// calls records n calls into the program. A non-nil err, which ends
// the run, counts as one failed operation; calls reports whether it
// did.
func (r *report) calls(n int, err error) bool {
	r.attempted += n
	if err == nil {
		return false
	}
	r.failed++
	r.violations = append(r.violations, "operation failed: "+err.Error())
	return true
}

// write prints the metric table, the info record, and the result line.
func (r *report) write(w io.Writer) error {
	for i, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.check(false, "metric %s is not finite", m.name)
			r.metrics[i].value = 0
		}
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "violation: %s\n", v)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "info %s\n", info)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.violations) == 0 && r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
