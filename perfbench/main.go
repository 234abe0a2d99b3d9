// Command perfbench is the repository's benchmark: one process runs one of
// four workloads (sweep, attack, service, cluster) built from --seed,
// measures it for --seconds, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced pass (--trace 1). The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before it
// give each metric by name and unit, the host fingerprint, and a "report"
// record that --compare reads back.
//
// Usage:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
//	python3 perfbench/run.py --compare old.txt new.txt
//
// run.py builds this package into .bench_build and runs it from the root
// of the repository; BENCHMARK.json records the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybp/internal/obs"
)

// env is what every workload is built from.
type env struct {
	seed  uint64
	procs int    // concurrency cap: harness workers, callers, worker slots
	tmp   string // scratch root inside the checkout
	mini  bool   // reduced size, for the layer probes of a traced run
}

// instance is one set-up workload: run is the timed phase, verify checks
// its outputs afterwards (it must work after close), layers reports the
// per-layer metrics of a traced instance.
type instance struct {
	run    func() runOut
	verify func() []string
	layers func() map[string]float64
	close  func()
}

// runOut is what one timed phase did.
type runOut struct {
	ops       int       // operations completed
	attempted int       // operations attempted
	failed    int       // failed or refused operations
	latMS     []float64 // per-operation latency, when sampled directly
	// latHist is the per-operation latency when only a histogram is
	// available (latMS empty).
	latHist obs.HistogramSnapshot
}

// pooledQuantiles returns the median and 99th percentile latency over
// every operation of every pass, and how many operations that is. Pooling
// puts more samples beyond the 99th percentile than any one pass has.
func pooledQuantiles(outs []runOut) (p50, p99 float64, n int) {
	var (
		all  []float64
		hist obs.HistogramSnapshot
	)
	for _, o := range outs {
		all = append(all, o.latMS...)
		hist = mergeHist(hist, o.latHist)
	}
	if len(all) > 0 {
		return quantile(all, 0.5), quantile(all, 0.99), len(all)
	}
	return histQuantile(hist, 0.5), histQuantile(hist, 0.99), int(hist.Count)
}

type workloadDef struct {
	name  string
	setup func(e *env, traced bool) (*instance, error)
	// oneThread runs the workload on one scheduler thread (GOMAXPROCS=1)
	// while keeping its nproc-way concurrency. On a shared host a run
	// that keeps two CPUs busy is slowed whenever either is contended:
	// interleaved cluster runs spread 0.27 (IQR/median) with two threads
	// against 0.10 with one. service keeps every CPU: its journal fsyncs
	// block, and a goroutine blocked in a syscall holds the only thread
	// until the runtime hands it off, which made it slower and noisier.
	oneThread bool
}

var workloads = []workloadDef{
	{"sweep", setupSweep, true},
	{"attack", setupAttack, true},
	{"service", setupService, false},
	{"cluster", setupCluster, true},
}

// useThreads sets GOMAXPROCS for w.
func useThreads(w workloadDef) {
	if w.oneThread {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupReps is how many times set-up is measured before the first pass
// and again after each pass; the median of all of them is reported, so
// that set-up is sampled across the whole run, as the passes are.
const setupReps = 7

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: sweep, attack, service or cluster")
		seed    = flag.Uint64("seed", 2022, "seed every input is generated from")
		seconds = flag.Float64("seconds", 15, "measurement budget: passes repeat until it is spent (at least one)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		probe   = flag.Bool("setup-probe", false, "internal: set the workload up once, report when ready, and exit")
		compare = flag.Bool("compare", false, "compare the report lines of two saved outputs (args: OLD NEW)")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareReports(flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	selected := workloads
	if *wlName != "all" {
		w, ok := findWorkload(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: sweep, attack, service, cluster, all)\n", *wlName)
			os.Exit(2)
		}
		selected = []workloadDef{w}
	}
	e := &env{seed: *seed, procs: runtime.NumCPU(), tmp: scratchRoot()}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *probe {
		useThreads(selected[0])
		os.Exit(setupProbeChild(selected[0], e))
	}

	// With --workload all, each workload prints its own block and the
	// last line sums them up, metric names prefixed by workload.
	total := newResult()
	var fp fingerprint
	for _, w := range selected {
		useThreads(w)
		fp = hostFingerprint()
		fpJSON, _ := json.Marshal(fp)
		fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
		fmt.Printf("fingerprint %s\n", fpJSON)
		before := hostRefMS()
		var res result
		if *trace == 0 {
			res = runEndToEnd(w, e, time.Duration(*seconds*float64(time.Second)))
		} else {
			res = runTraced(w, e)
		}
		res.hostRef = []float64{before, hostRefMS()}
		res.print(w.name, *seed, *trace, fp)
		total.attempted += res.attempted
		total.failed += res.failed
		total.problems = append(total.problems, res.problems...)
		for _, name := range res.order {
			total.set(w.name+"."+name, res.metrics[name], res.units[name])
			total.aside[w.name+"."+name] = res.aside[name]
		}
	}
	if len(selected) > 1 {
		total.print("all", *seed, *trace, fp)
	}
}

// scratchRoot is where workloads put temp dirs: inside the checkout, under
// the build directory run.py uses.
func scratchRoot() string {
	if d := os.Getenv("PERFBENCH_TMP"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "tmp")
}

// result is one run's outcome.
type result struct {
	metrics   map[string]float64
	units     map[string]string
	order     []string
	attempted int
	failed    int
	problems  []string
	samples   map[string]int
	passWalls []float64
	hostRef   []float64 // hostRefMS before and after the run
	// aside names metrics that are printed and reported but left out of
	// the result line, which carries only the gated metrics.
	aside map[string]bool
}

func newResult() result {
	return result{metrics: map[string]float64{}, units: map[string]string{}, samples: map[string]int{}, aside: map[string]bool{}}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = v
	r.units[name] = unit
}

// setAside sets a metric that the result line leaves out.
func (r *result) setAside(name string, v float64, unit string) {
	r.set(name, v, unit)
	r.aside[name] = true
}

// runEndToEnd repeats untraced passes of fixed work until the budget is
// spent, measuring set-up before the first pass and after each one, then
// verifies every pass's outputs.
func runEndToEnd(w workloadDef, e *env, budget time.Duration) result {
	res := newResult()
	var setups []float64
	probeSetup := func() {
		xs, err := measureSetup(w, e)
		if err != nil {
			res.problems = append(res.problems, "setup: "+err.Error())
		}
		setups = append(setups, xs...)
	}
	probeSetup()

	var (
		phases   []phase
		outs     []runOut
		verifies []func() []string
	)
	start := time.Now()
	for {
		// Each pass starts from a collected heap returned to the OS, so
		// its peak RSS does not inherit the previous pass's garbage.
		debug.FreeOSMemory()
		inst, err := w.setup(e, false)
		if err != nil {
			res.problems = append(res.problems, "setup: "+err.Error())
			break
		}
		m := startMeter()
		out := inst.run()
		ph := m.stop()
		inst.close()
		phases = append(phases, ph)
		outs = append(outs, out)
		verifies = append(verifies, inst.verify)
		probeSetup()
		// Start another pass only if it fits the budget.
		if time.Since(start)+time.Duration(ph.wallS*float64(time.Second)) > budget {
			break
		}
	}
	for _, v := range verifies {
		res.problems = append(res.problems, v()...)
	}

	pick := func(f func(phase) float64) float64 {
		xs := make([]float64, len(phases))
		for i, p := range phases {
			xs[i] = f(p)
		}
		return median(xs)
	}
	var rates []float64
	for i, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		rates = append(rates, float64(o.ops)/phases[i].wallS)
	}
	p50, p99, latN := pooledQuantiles(outs)
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", pick(func(p phase) float64 { return p.wallS }), "s")
	res.set("cpu_s", pick(func(p phase) float64 { return p.cpuS }), "s")
	res.set("alloc_mb", pick(func(p phase) float64 { return p.allocMiB }), "MiB")
	res.set("rss_peak_mb", pick(func(p phase) float64 { return p.rssPeakMiB }), "MiB")
	// The job figures are the service workload's metrics. BENCHMARK.json
	// gates sweep and cluster, where a job is a simulation point or a
	// coordinator offer whose tail follows the host's stalls more than the
	// program, so they are printed and reported but not on the result line.
	res.setAside("jobs_per_s", median(rates), "1/s")
	res.setAside("job_p50_ms", p50, "ms")
	res.setAside("job_p99_ms", p99, "ms")
	for _, p := range phases {
		res.passWalls = append(res.passWalls, p.wallS)
	}
	res.samples["passes"] = len(phases)
	res.samples["job_latency"] = latN
	res.samples["setup"] = len(setups)
	return res
}

// runTraced alternates untraced and traced passes of the workload (the
// tracing overhead, the GC figures, and the workload's own layer metrics),
// then runs reduced traced passes of every other workload and the
// simulator-layer probe, so each traced run reports every per-layer metric.
func runTraced(w workloadDef, e *env) result {
	res := newResult()
	layers := map[string]float64{}
	// The first pass to measure a metric wins; a NaN means the pass could
	// not measure it (no such spans), so a later probe may.
	merge := func(m map[string]float64) {
		for k, v := range m {
			if _, ok := layers[k]; !ok && !math.IsNaN(v) {
				layers[k] = v
			}
		}
	}
	pass := func(def workloadDef, ee *env, traced bool) (phase, runOut, bool) {
		debug.FreeOSMemory()
		inst, err := def.setup(ee, traced)
		if err != nil {
			res.problems = append(res.problems, def.name+" setup: "+err.Error())
			return phase{}, runOut{}, false
		}
		m := startMeter()
		out := inst.run()
		ph := m.stop()
		if traced {
			merge(inst.layers())
		}
		inst.close()
		res.problems = append(res.problems, inst.verify()...)
		res.attempted += out.attempted
		res.failed += out.failed
		return ph, out, true
	}

	// Alternate untraced and traced passes; several pairs when passes are
	// short, so the overhead estimate is a median, not one noisy pair.
	var walls [2][]float64
	var first phase
	for pair := 0; pair < 3; pair++ {
		u, _, ok1 := pass(w, e, false)
		t, _, ok2 := pass(w, e, true)
		if !ok1 || !ok2 {
			break
		}
		if pair == 0 {
			first = u
		}
		walls[0], walls[1] = append(walls[0], u.wallS), append(walls[1], t.wallS)
		if u.wallS > 5 {
			break
		}
	}
	if len(walls[0]) > 0 {
		layers["obs.trace_overhead_frac"] = (median(walls[1]) - median(walls[0])) / median(walls[0])
	}
	layers["gc.cycles"] = first.gcCycles
	layers["gc.pause_ms"] = first.gcPauseMs

	mini := *e
	mini.mini = true
	for _, other := range workloads {
		if other.name != w.name {
			useThreads(other)
			pass(other, &mini, true)
		}
	}
	useThreads(w)
	sp, err := simProbe(e)
	if err != nil {
		res.problems = append(res.problems, "sim probe: "+err.Error())
	}
	merge(sp)

	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, "per-layer metric "+m.name+" was not measured")
			continue
		}
		res.set(m.name, v, m.unit)
	}
	return res
}

// measureSetup starts the benchmark binary setupReps times in set-up-probe
// mode and returns each time from process start to "ready": runtime and
// package initialization plus the workload's set-up (harness, server,
// journal, coordinator, worker registration, inputs).
func measureSetup(w workloadDef, e *env) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var xs []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", w.name,
			"--seed", strconv.FormatUint(e.seed, 10))
		cmd.Stderr = os.Stderr
		started := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return xs, fmt.Errorf("setup probe: %w", err)
		}
		f := strings.Fields(string(out))
		if len(f) != 2 || f[0] != "ready" {
			return xs, fmt.Errorf("setup probe printed %q", out)
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return xs, fmt.Errorf("setup probe: %w", err)
		}
		xs = append(xs, float64(ns-started.UnixNano())/1e9)
	}
	return xs, nil
}

func setupProbeChild(w workloadDef, e *env) int {
	inst, err := w.setup(e, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	fmt.Printf("ready %d\n", time.Now().UnixNano())
	inst.close()
	return 0
}

// report is the machine-readable record of a run that --compare reads.
type report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       int                `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Metrics     map[string]float64 `json:"metrics"`
	Units       map[string]string  `json:"units"`
	Samples     map[string]int     `json:"samples"`
	PassWalls   []float64          `json:"pass_wall_s,omitempty"`
	HostRefMS   []float64          `json:"host_ref_ms,omitempty"`
	FailedFrac  float64            `json:"failed_frac"`
	Problems    []string           `json:"problems,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r result) print(workload string, seed uint64, trace int, fp fingerprint) {
	// JSON has no NaN: a metric that could not be measured fails the run
	// and is printed as 0.
	for _, name := range r.order {
		if v := r.metrics[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, "metric "+name+" was not measured")
			r.metrics[name] = 0
		}
	}
	// A check failure with no failed operation attached still fails the run.
	failed := r.failed
	if len(r.problems) > failed {
		failed = len(r.problems)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	if failed > attempted {
		attempted = failed
	}
	for _, p := range r.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	for _, name := range r.order {
		fmt.Printf("metric %-28s %14.6g %s\n", name, r.metrics[name], r.units[name])
	}
	frac := float64(failed) / float64(attempted)
	fmt.Printf("failed_frac %g (%d of %d operations)\n", frac, failed, attempted)
	rep := report{
		Workload: workload, Seed: seed, Trace: trace, Fingerprint: fp,
		Metrics: r.metrics, Units: r.units, Samples: r.samples, PassWalls: r.passWalls, HostRefMS: r.hostRef,
		FailedFrac: frac, Problems: r.problems,
	}
	b, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", b)

	fl := finalLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, name := range r.order {
		if !r.aside[name] {
			fl.Metrics[name] = metricValue{r.metrics[name], r.units[name]}
		}
	}
	b, _ = json.Marshal(fl)
	fmt.Println(string(b))
}

// compareReports prints per-metric ratios between two saved outputs and
// refuses (exit 3) when they were measured on different hosts.
func compareReports(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --compare needs OLD and NEW output files")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		reps[i] = rep
	}
	if reps[0].Fingerprint != reps[1].Fingerprint {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: host fingerprints differ\n  old: %+v\n  new: %+v\n",
			reps[0].Fingerprint, reps[1].Fingerprint)
		return 3
	}
	if reps[0].Workload != reps[1].Workload || reps[0].Trace != reps[1].Trace {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare: different workloads or trace modes")
		return 3
	}
	var names []string
	for k := range reps[1].Metrics {
		if _, ok := reps[0].Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "metric", "old", "new", "new/old")
	for _, k := range names {
		o, n := reps[0].Metrics[k], reps[1].Metrics[k]
		fmt.Printf("%-28s %14.6g %14.6g %9.4f %s\n", k, o, n, n/o, reps[1].Units[k])
	}
	return 0
}

func readReport(path string) (report, error) {
	f, err := os.Open(path)
	if err != nil {
		return report{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "report "); ok {
			var rep report
			if err := json.Unmarshal([]byte(rest), &rep); err != nil {
				return report{}, fmt.Errorf("%s: %w", path, err)
			}
			return rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return report{}, fmt.Errorf("%s: no report line", path)
}
