package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"snd/internal/analysis"
	"snd/internal/exp"
	"snd/internal/runner"
	"snd/internal/stats"
)

// batchWorkload is one registered experiment driven in-process through the
// registry on a runner.Engine, sweep after sweep (closed loop: the next
// sweep is due when the previous one returns).
type batchWorkload struct {
	exp string
	// params is the sweep's params document for one seed.
	params func(seed int64) string
	// golden is the experiment's golden-test config; its rendering must
	// match internal/exp/testdata/golden/<exp>.txt byte for byte.
	golden string
	// check asserts the paper's invariants on one benchmark-scale result;
	// params is the fully defaulted params struct the sweep ran.
	check func(params any, r exp.Result, res *result)
	// decompose re-runs the sweep behind bound call by call through the
	// public sim/deploy/verify/topology functions, timing each call, and
	// returns the reduced result's series for a bit-for-bit comparison.
	decompose func(ctx context.Context, eng *runner.Engine, bound exp.Experiment, rec *layerTrace) ([]stats.Series, error)
	// series extracts the comparable series of a registered result.
	series func(r exp.Result) []stats.Series
}

var batchWorkloads = map[string]batchWorkload{
	"protocol-dense": {
		exp:       "isolation",
		params:    func(seed int64) string { return fmt.Sprintf(`{"Thresholds":[30],"Seed":%d}`, seed) },
		golden:    `{"Nodes":100,"Thresholds":[0,80],"Trials":2,"Seed":15}`,
		check:     checkIsolation,
		decompose: decomposeIsolation,
		series: func(r exp.Result) []stats.Series {
			x := r.(*exp.IsolationResult)
			return []stats.Series{x.IsolatedFraction, x.Partitions, x.Accuracy}
		},
	},
	"protocol-aging": {
		exp:       "update",
		params:    func(seed int64) string { return fmt.Sprintf(`{"Seed":%d}`, seed) },
		golden:    `{"Nodes":120,"UpdateBudgets":[0,2],"Waves":2,"Trials":1,"Seed":9}`,
		check:     checkUpdate,
		decompose: decomposeUpdate,
		series: func(r exp.Result) []stats.Series {
			x := r.(*exp.UpdateResult)
			return []stats.Series{x.Accuracy, x.MaxReach, x.TheoremBound, scalarSeries("Range", x.Range)}
		},
	},
	"scale": {
		exp: "scale",
		params: func(seed int64) string {
			return fmt.Sprintf(`{"Trials":%d,"Seed":%d}`, runtime.NumCPU(), seed)
		},
		golden:    `{"Nodes":20000,"Samples":500,"Trials":2,"Seed":21}`,
		check:     checkScale,
		decompose: decomposeScale,
		series: func(r exp.Result) []stats.Series {
			x := r.(*exp.ScaleResult)
			return []stats.Series{x.Theory, x.Simulation, scalarSeries("MeanDegree", x.MeanDegree), scalarSeries("Nodes", float64(x.Nodes))}
		},
	},
}

// scalarSeries wraps a scalar result field so it is compared like a series.
func scalarSeries(name string, v float64) stats.Series {
	return stats.Series{Name: name, Y: []float64{v}}
}

// sweepSeed derives the base seed of the i-th sweep of a run.
func sweepSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// interval is one trial's execution window.
type interval struct{ start, end time.Time }

// trialClock is a runner.Cache that never hits: the engine calls Get as a
// trial starts and Put as it finishes, which times every trial from
// outside the program.
type trialClock struct {
	mu     sync.Mutex
	begun  map[string]time.Time
	trials []interval
}

func newTrialClock() *trialClock { return &trialClock{begun: map[string]time.Time{}} }

func (c *trialClock) Get(key string) ([]byte, bool) {
	now := time.Now()
	c.mu.Lock()
	c.begun[key] = now
	c.mu.Unlock()
	return nil, false
}

func (c *trialClock) Put(key string, _ []byte) {
	now := time.Now()
	c.mu.Lock()
	c.trials = append(c.trials, interval{c.begun[key], now})
	c.mu.Unlock()
}

// sweepRun is one registered sweep of a batch run.
type sweepRun struct {
	bound      exp.Experiment
	start, end time.Time
	setup      time.Duration // set-up origin to first trial done
	trials     []interval    // sorted by start
	dropped    int
	result     exp.Result
}

// steady reports whether sweep i of n counts as steady: every sweep but
// the first, or the first when it is the only one. The first sweep also
// grows the fresh process's heap (on scale it takes half as long again as
// the rest); leaving out only it keeps as many sweeps as possible in the
// medians.
func steady(i, n int) bool { return i >= 1 || n == 1 }

// runSweeps runs sweeps of w back to back until seconds have passed
// (always at least one), each on a fresh engine, so every sweep repeats
// the set-up a user pays. The first sweep's set-up starts at process
// start.
func runSweeps(ctx context.Context, w batchWorkload, seed int64, seconds float64, processStart time.Time, res *result) []sweepRun {
	e, _ := exp.Lookup(w.exp)
	var out []sweepRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	origin := processStart
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		clock := newTrialClock()
		eng := runner.New(runner.Options{Workers: runtime.NumCPU(), Cache: clock})
		bound, err := e.Decode(json.RawMessage(w.params(sweepSeed(seed, i))))
		if !res.check(err == nil, "%s: decode params: %v", w.exp, err) {
			return out
		}
		s := sweepRun{bound: bound, start: time.Now()}
		r, err := bound.Run(ctx, eng)
		s.end = time.Now()
		if !res.check(err == nil, "%s sweep %d: %v", w.exp, i, err) {
			return out
		}
		s.result = r
		s.trials = clock.trials
		sort.Slice(s.trials, func(a, b int) bool { return s.trials[a].start.Before(s.trials[b].start) })
		first := s.end
		for _, t := range s.trials {
			if t.end.Before(first) {
				first = t.end
			}
		}
		s.setup = first.Sub(origin)
		s.dropped = r.Health().Dropped
		res.attempted += len(s.trials) + s.dropped
		res.failed += s.dropped
		w.check(bound.DefaultParams(), r, res)
		out = append(out, s)
		origin = time.Now()
	}
	return out
}

// reportSweeps sets the end-to-end metrics of a batch run. Set-up is the
// median over all sweeps; throughput is the median over the steady
// sweeps, since the earlier ones also pay for growing a fresh process's
// heap (that cost is set-up's). Medians keep one sweep slowed by a
// neighbour on the machine from moving them. Peak resident set is the
// process's VmHWM after the sweeps.
func reportSweeps(sweeps []sweepRun, res *result) {
	var setups, jobMs, trialRates, jobRates []float64
	for i, s := range sweeps {
		wall := s.end.Sub(s.start).Seconds()
		setups = append(setups, s.setup.Seconds())
		jobMs = append(jobMs, 1000*wall)
		if !steady(i, len(sweeps)) {
			continue
		}
		trialRates = append(trialRates, float64(len(s.trials))/wall)
		jobRates = append(jobRates, 1/wall)
	}
	res.set("setup_s", median(setups))
	res.set("trials_per_s", median(trialRates))
	res.set("jobs_per_s", median(jobRates))
	res.set("peak_rss_mb", peakRSSMB("self"))
	res.note("batch: %d sweeps of %.0f ms", len(sweeps), jobMs)
	res.latency("job_ms", "sweeps", jobMs)
	res.note("read_ms: not applicable, a batch run issues no reads")
}

// runBatch is one batch-workload invocation: the timed sweeps, then (with
// trace) their call-by-call decomposition, then the golden check.
func runBatch(ctx context.Context, name string, seed int64, seconds float64, traced bool, processStart time.Time) *result {
	w := batchWorkloads[name]
	res := newResult()
	before := readRuntime()
	sweeps := runSweeps(ctx, w, seed, seconds, processStart, res)
	after := readRuntime()
	if len(sweeps) == 0 {
		return res
	}
	reportSweeps(sweeps, res)
	if traced {
		reportRunner(sweeps, res)
		reportRuntime(before, after, sweeps, res)
		decomposeSweeps(ctx, w, sweeps, res)
	}
	checkGolden(ctx, w.exp, w.golden, res)
	return res
}

// reportRunner sets the runner-layer metrics from the trial windows. The
// engine hands cells to its workers through an unbuffered channel in
// order, stamping each as enqueued right after the previous one was taken,
// so a cell's queue wait is the gap between consecutive trial starts (the
// first waits from the sweep's start).
func reportRunner(sweeps []sweepRun, res *result) {
	var trialMs, waitMs []float64
	busy, capacity := 0.0, 0.0
	for _, s := range sweeps {
		prev := s.start
		for _, t := range s.trials {
			trialMs = append(trialMs, ms(t.end.Sub(t.start)))
			waitMs = append(waitMs, ms(t.start.Sub(prev)))
			busy += t.end.Sub(t.start).Seconds()
			prev = t.start
		}
		capacity += float64(runtime.NumCPU()) * s.end.Sub(s.start).Seconds()
	}
	res.percentile("runner.trial_ms_p50", trialMs, 0.5)
	res.percentile("runner.trial_ms_p90", trialMs, 0.9)
	res.percentile("runner.queue_wait_ms_p50", waitMs, 0.5)
	res.set("runner.busy_frac", busy/capacity)
}

// runtimeSample is a reading of the runtime's cumulative counters.
type runtimeSample struct{ allocBytes, allocObjects, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

func reportRuntime(before, after runtimeSample, sweeps []sweepRun, res *result) {
	trials := 0
	for _, s := range sweeps {
		trials += len(s.trials)
	}
	n := float64(max(trials, 1))
	res.set("runtime.alloc_mb_per_trial", (after.allocBytes-before.allocBytes)/n/(1<<20))
	res.set("runtime.allocs_per_trial", (after.allocObjects-before.allocObjects)/n)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		res.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}

// decomposeSweeps replays every timed sweep call by call under a CPU
// profile, checks the replay reproduces the registered result bit for bit,
// and reports the per-layer spans, counts and profile shares. The tracing
// overhead compares the steady sweeps (as for trials_per_s) with their
// replays. A replay's wall time leaves out its extra verify.TentativeGraph
// probes, counted as their summed span time spread over the workers.
func decomposeSweeps(ctx context.Context, w batchWorkload, sweeps []sweepRun, res *result) {
	rec := &layerTrace{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); !res.check(err == nil, "cpu profile: %v", err) {
		return
	}
	traced, untraced, trials := 0.0, 0.0, 0
	for i, s := range sweeps {
		eng := runner.New(runner.Options{Workers: runtime.NumCPU()})
		probed := rec.spanTotal("verify.tentative")
		t0 := time.Now()
		got, err := w.decompose(ctx, eng, s.bound, rec)
		wall := time.Since(t0).Seconds()
		wall -= (rec.spanTotal("verify.tentative") - probed) / 1000 / float64(runtime.NumCPU())
		if !res.check(err == nil, "%s decomposition of sweep %d: %v", w.exp, i, err) {
			continue
		}
		res.check(seriesEqual(got, w.series(s.result)), "%s decomposition of sweep %d differs from the registered result", w.exp, i)
		if steady(i, len(sweeps)) {
			traced += wall
			untraced += s.end.Sub(s.start).Seconds()
			trials += len(s.trials)
		}
	}
	pprof.StopCPUProfile()
	if traced > 0 && untraced > 0 {
		tracedRate, untracedRate := float64(trials)/traced, float64(trials)/untraced
		res.set("trace.traced_trials_per_s", tracedRate)
		res.set("trace.untraced_trials_per_s", untracedRate)
		res.set("trace.overhead_frac", 1-tracedRate/untracedRate)
	}
	rec.report(res)
	p, err := parseProfile(prof.Bytes())
	if res.check(err == nil, "parse cpu profile: %v", err) {
		reportSelf(p.selfByLayer(), float64(max(rec.trials, 1)), res)
	}
}

// profiledLayers are the packages whose self time the traced run reports.
var profiledLayers = []string{"core", "radio", "nodeid", "crypto", "topology", "deploy", "verify", "sim"}

func reportSelf(self map[string]float64, trials float64, res *result) {
	for _, l := range profiledLayers {
		res.set(l+".self_ms", self[l]/trials)
	}
	res.set("runtime.gc_self_ms", self["runtime.gc"]/trials)
}

// seriesEqual compares series names and every float bit for bit.
func seriesEqual(a, b []stats.Series) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a {
		if a[i].Name != b[i].Name || !same(a[i].X, b[i].X) || !same(a[i].Y, b[i].Y) || !same(a[i].Err, b[i].Err) {
			return false
		}
	}
	return true
}

// goldenDir holds the experiments' recorded renderings, relative to the
// repository root the benchmark runs from.
const goldenDir = "internal/exp/testdata/golden"

// checkGolden runs an experiment at its golden-test config through the
// registry and requires its rendering to match the recorded golden file.
func checkGolden(ctx context.Context, name, params string, res *result) {
	want, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
	if !res.check(err == nil, "golden %s: %v", name, err) {
		return
	}
	e, _ := exp.Lookup(name)
	bound, err := e.Decode(json.RawMessage(params))
	if !res.check(err == nil, "golden %s: decode: %v", name, err) {
		return
	}
	r, err := bound.Run(ctx, runner.New(runner.Options{Workers: runtime.NumCPU()}))
	if !res.check(err == nil, "golden %s: run: %v", name, err) {
		return
	}
	res.check(r.Render() == string(want), "golden %s: rendering differs from %s", name, filepath.Join(goldenDir, name+".txt"))
}

// isolationFloorShare is the share of the τ² accuracy estimate the
// protocol-dense sweep must reach: τ² models an interior node, and border
// nodes, whose radio disks are cut by the field edge, validate fewer
// neighbours.
const isolationFloorShare = 0.95

func checkIsolation(params any, r exp.Result, res *result) {
	x, p := r.(*exp.IsolationResult), params.(exp.IsolationParams)
	model := analysis.Model{Density: float64(p.Nodes) / (p.FieldSide * p.FieldSide), Range: p.Range}
	for i, t := range x.Accuracy.X {
		floor := isolationFloorShare * model.Accuracy(int(t))
		res.check(x.Accuracy.Y[i] >= floor, "isolation t=%g: accuracy %.4f below the τ² floor %.4f", t, x.Accuracy.Y[i], floor)
	}
}

func checkUpdate(_ any, r exp.Result, res *result) {
	x := r.(*exp.UpdateResult)
	for i, m := range x.MaxReach.X {
		bound := analysis.SafetyRadius(x.Range, int(m))
		res.check(x.MaxReach.Y[i] <= bound, "update m=%g: compromised reach %.3f exceeds the Theorem 4 bound %.3f", m, x.MaxReach.Y[i], bound)
	}
}

// scaleDegreeTolerance is how far the sampled mean degree of the scale
// deployment may sit from πR²ρ: the 10,000-node sample's standard error is
// about 0.2% and nodes within R of the field edge lose about 0.4%.
const scaleDegreeTolerance = 0.02

func checkScale(params any, r exp.Result, res *result) {
	x, p := r.(*exp.ScaleResult), params.(exp.ScaleParams)
	want := math.Pi * p.Range * p.Range * float64(p.Nodes) / (p.FieldSide * p.FieldSide)
	res.check(math.Abs(x.MeanDegree-want) <= scaleDegreeTolerance*want,
		"scale: mean degree %.3f not within %.0f%% of πR²ρ = %.3f", x.MeanDegree, 100*scaleDegreeTolerance, want)
}
