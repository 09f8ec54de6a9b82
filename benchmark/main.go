// Command benchmark is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks that every output is correct, and
// prints its metrics, each by name with its unit, ending with one JSON
// line. Run it from the repository root through run.sh, which builds it
// and sndserve first:
//
//	bash benchmark/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics. WORKLOADS.md records what
// each workload runs and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric with its unit. The two lists below are
// BENCHMARK.json's end_to_end and per_layer lists, in order; a test keeps
// them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"failed_frac", "frac"},
	{"job_ms_p50", "ms"}, {"job_ms_p90", "ms"},
	{"read_ms_p50", "ms"}, {"read_ms_p90", "ms"},

	{"sim.round_ms", "ms"}, {"sim.wave_ms", "ms"}, {"sim.metrics_ms", "ms"}, {"verify.tentative_ms", "ms"},

	{"core.self_ms", "ms"}, {"radio.self_ms", "ms"}, {"nodeid.self_ms", "ms"}, {"crypto.self_ms", "ms"},
	{"topology.self_ms", "ms"}, {"deploy.self_ms", "ms"}, {"verify.self_ms", "ms"}, {"sim.self_ms", "ms"},
	{"runtime.gc_self_ms", "ms"},

	{"radio.sent", "count"}, {"radio.delivered", "count"}, {"radio.bytes_sent", "bytes"},
	{"radio.lost", "count"}, {"radio.delivery_ratio", "ratio"},
	{"core.records_accepted", "count"}, {"core.records_rejected", "count"}, {"core.validated", "count"},
	{"core.commits_rejected", "count"}, {"core.updates_served", "count"}, {"core.updates_applied", "count"},
	{"core.validated_per_record", "ratio"}, {"crypto.hash_ops_per_node", "count"},

	{"runtime.alloc_mb_per_trial", "MB"}, {"runtime.allocs_per_trial", "count"}, {"runtime.gc_cpu_frac", "frac"},

	{"runner.trial_ms_p50", "ms"}, {"runner.trial_ms_p90", "ms"},
	{"runner.queue_wait_ms_p50", "ms"}, {"runner.busy_frac", "frac"},

	{"deploy.sample_ms", "ms"}, {"deploy.grid_ms", "ms"}, {"topology.build_ms", "ms"},
	{"topology.profile_ms", "ms"}, {"topology.edges", "count"}, {"topology.common_out_calls", "count"},

	{"client.submit_ms_p90", "ms"}, {"sndserve.queue_ms_p50", "ms"}, {"sndserve.run_cold_ms_p50", "ms"},
	{"sndserve.run_warm_ms_p50", "ms"}, {"client.observe_lag_ms_p50", "ms"},
	{"runner.cache_hit_ratio", "ratio"}, {"store.get_ms_mean", "ms"}, {"store.put_ms_mean", "ms"},
	{"store.errors", "count"}, {"store.wal_bytes_per_job", "bytes"}, {"sndserve.cpu_ms_per_job", "ms"},
	{"sndserve.rejected", "count"}, {"client.late_ms_p90", "ms"},

	{"trace.traced_trials_per_s", "1/s"}, {"trace.untraced_trials_per_s", "1/s"}, {"trace.overhead_frac", "frac"},
}

// result collects one run's metrics, correctness checks and notes.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes, failures   []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// percentile sets name to the q-quantile of xs, or, when the sample is
// too small for it, to 0 with a note saying so.
func (r *result) percentile(name string, xs []float64, q float64) {
	v, err := quantile(xs, q)
	if err != nil {
		r.note("%s: %v", name, err)
	}
	r.set(name, v)
}

// latency sets <prefix>_p50 and <prefix>_p90 (0 where the sample is too
// small) and notes the sample count, the median and the highest
// percentile the sample supports.
func (r *result) latency(prefix, what string, xs []float64) {
	for _, q := range []float64{0.5, 0.9} {
		v, _ := quantile(xs, q)
		r.set(fmt.Sprintf("%s_p%g", prefix, q*100), v)
	}
	if q, v, err := tail(xs); err == nil {
		r.note("%s: n=%d %s, median %.3f ms, p%g %.3f ms", prefix, len(xs), what, median(xs), q*100, v)
	} else {
		r.note("%s: n=%d %s, median %.3f ms; percentiles refused: %v", prefix, len(xs), what, median(xs), err)
	}
}

// print writes every metric by name with its unit, the notes and any
// failed checks, then the closing JSON line with the end-to-end (or, when
// traced, the per-layer) metrics.
func (r *result) print(traced bool) {
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := r.values[m.name]; ok {
				fmt.Printf("%-30s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, metrics})
	fmt.Println(string(line))
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) in MiB.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// runDeadline bounds one invocation well inside the 180 s a run may take.
const runDeadline = 170 * time.Second

func main() {
	processStart := time.Now()
	workload := flag.String("workload", "", "protocol-dense, protocol-aging, scale or serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	sndserve := flag.String("sndserve", ".bench_build/bin/sndserve", "serve workload: sndserve binary built from this tree")
	flag.Parse()

	// The benchmark runs from the repository root; without the program's
	// sources and goldens there is nothing to measure.
	for _, p := range []string{"go.mod", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run from the repository root (%v)\n", err)
			os.Exit(2)
		}
	}
	traced := *traceFlag == 1
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var res *result
	switch {
	case *workload == "serve":
		res = runServe(ctx, serveConfig{
			binary: *sndserve, seed: *seed, seconds: *seconds, traced: traced,
		})
	case batchWorkloads[*workload].exp != "":
		res = runBatch(ctx, *workload, *seed, *seconds, traced, processStart)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		*workload, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	res.print(traced)
	if res.failed > 0 {
		os.Exit(1)
	}
}
