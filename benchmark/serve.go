package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"snd/client"
	"snd/internal/exp"
	"snd/internal/runner"
)

// The serve workload drives sndserve, built from this tree, over /v1 with
// an open-loop mix of job submissions and list pages, each job followed
// by client.Wait's status polls, then measures the server's throughput on
// closed loops of cold jobs, each on a fresh server.
const (
	// serveRate is the open-loop rate in requests scheduled per second,
	// about half the knee (see WORKLOADS.md, which records the search).
	serveRate = 80
	// coldShare, warmShare and listShare split the scheduled requests.
	// The split is chosen, not measured (see WORKLOADS.md). Status polls
	// come on top: each job is waited on with client.Wait.
	coldShare, warmShare = 0.6, 0.25
	// fig3Trials keeps each cold job small, so admission, the job table,
	// the WAL and the store set its latency rather than trial compute.
	fig3Trials = 2
	// jobTTL evicts finished jobs quickly; warmDelay is how long after its
	// cold twin was due a warm resubmission is scheduled, well past the
	// TTL, so it finds the job evicted and re-runs it from the trial cache.
	jobTTL    = time.Second
	warmDelay = 3 * time.Second
	// loopJobTTL is the closed loops' servers' -jobttl. They resubmit
	// nothing, and a finished job must outlive the wait for its next poll
	// even when the machine's other tenants starve the client: 24 pollers
	// share nproc connections with a saturated server, and at 1 s jobs
	// were evicted before they were seen.
	loopJobTTL = 5 * time.Second
	// serveWarmup is traffic sent before the timed window and not counted.
	serveWarmup = 2 * time.Second
	// serveSpawns is how many times set-up (spawn to first answer) is
	// measured apart from the closed loops' servers: half before the
	// traffic, where the last server spawned carries the open loop, and
	// half after it, so the median spans two stretches of the machine's
	// background load.
	serveSpawns = 42
	// windowShare of --seconds is the open-loop window; the rest is split
	// between the timed parts of loopServers closed loops (see
	// closedLoop), each on a fresh server, each starting once its first
	// loopWarmJobs jobs, untimed, have finished. The warm-up is a count,
	// not a time, so every run times each server from the same state:
	// sndserve speeds up over its first thousands of trials.
	windowShare  = 0.25
	loopServers  = 3
	loopWarmJobs = 50
	// loopJobs fresh cold jobs of loopTrials trials each are in flight at
	// once in the closed loop: enough that the server's queue stays full
	// while client.Wait's 250 ms cadence leaves finished jobs unobserved.
	// -maxjobs admits them all. The trials have loopNodes nodes, not the
	// window's 200, so their compute rather than the per-trial store
	// writes and per-job WAL fsyncs sets the pace: on a disk shared with
	// other tenants, those make the figure swing from run to run.
	loopJobs   = 24
	loopTrials = 4
	loopNodes  = 400
	maxJobs    = 400
	// loopGroup: jobs_per_s is the median, over consecutive groups of
	// loopGroup jobs in finishing order, of the group's completion rate;
	// at least minGroups groups must finish in the timed part.
	loopGroup = 25
	minGroups = 5
	// loopSeedBase offsets the closed loops' seeds past every cold job of
	// the window, and loopSeedStride each loop's past the one before.
	loopSeedBase   = 50000
	loopSeedStride = 10000
)

type serveConfig struct {
	binary  string
	seed    int64
	seconds float64
	traced  bool
}

type opKind int

const (
	opCold opKind = iota
	opWarm
	opList
)

// serveOp is one scheduled request and what became of it.
type serveOp struct {
	kind   opKind
	due    time.Time
	cold   int  // the cold job's index (cold and warm ops)
	timed  bool // due inside the timed window
	params json.RawMessage

	err      error
	submitMs float64
	fresh    bool // the submission created a job rather than finding one
	job      client.Job
	observed time.Time // terminal status first seen
	reads    []float64 // latencies of the list page or of client.Wait's polls
}

// coldParams is the fig3 params document of the j-th cold job of the
// window.
func coldParams(seed int64, j int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"Trials":%d,"Seed":%d}`, fig3Trials, seed*100000+int64(j)))
}

// loopParams is the fig3 params document of the j-th job of the closed
// loop.
func loopParams(seed int64, j int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"Nodes":%d,"Trials":%d,"Seed":%d}`, loopNodes, loopTrials, seed*100000+loopSeedBase+int64(j)))
}

// schedule lays out the run's requests from the seed: one every 1/rate
// seconds, each cold, warm or a list page. A warm op resubmits a cold job
// due at least warmDelay earlier that no warm op has taken yet; until one
// exists, the op is cold instead.
func schedule(seed int64, rate float64, start time.Time, warmup, window time.Duration) []*serveOp {
	rng := rand.New(rand.NewSource(seed))
	n := int((warmup + window).Seconds() * rate)
	var ops []*serveOp
	var colds []*serveOp // cold ops in due order
	var eligible []int   // cold indices old enough to warm, not yet warmed
	next := 0            // next cold index to become eligible
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		op := &serveOp{due: due, timed: !due.Before(start.Add(warmup))}
		for next < len(colds) && !colds[next].due.After(due.Add(-warmDelay)) {
			eligible = append(eligible, next)
			next++
		}
		u := rng.Float64()
		switch {
		case u >= coldShare+warmShare:
			op.kind = opList
		case u >= coldShare && len(eligible) > 0:
			k := rng.Intn(len(eligible))
			op.kind, op.cold = opWarm, eligible[k]
			eligible[k] = eligible[len(eligible)-1]
			eligible = eligible[:len(eligible)-1]
		default:
			op.kind, op.cold = opCold, len(colds)
			colds = append(colds, op)
		}
		if op.kind != opList {
			op.params = coldParams(seed, op.cold)
		}
		ops = append(ops, op)
	}
	return ops
}

// server is one running sndserve.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{}
}

// spawn starts sndserve on a free port with a fresh file store and job
// log under dir and finished jobs kept for ttl, and returns once it
// answers GET /v1/experiments.
func spawn(ctx context.Context, cfg serveConfig, dir string, ttl time.Duration) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "sndserve.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := []string{
		"-addr", addr,
		"-workers", strconv.Itoa(runtime.NumCPU()),
		"-store", "file://" + filepath.Join(abs, "store"),
		"-jobstore", filepath.Join(abs, "jobs.wal"),
		"-jobttl", ttl.String(),
		"-maxjobs", strconv.Itoa(maxJobs),
	}
	if cfg.traced {
		args = append(args, "-pprof")
	}
	start := time.Now()
	cmd := exec.Command(cfg.binary, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sndserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/v1/experiments")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("sndserve exited during start-up (see %s)", filepath.Join(dir, "sndserve.log"))
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM (a graceful drain) and waits for exit, killing the
// server if it has not exited within 20 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 1/100 s.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// promSum sums the samples of one Prometheus metric whose label set
// contains every given label pair (e.g. `op="get"`).
func promSum(text, name string, labels ...string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(rest, l)
		}
		if i := strings.LastIndexByte(rest, ' '); match && i >= 0 {
			v, _ := strconv.ParseFloat(rest[i+1:], 64)
			sum += v
		}
	}
	return sum
}

// walGrowth samples a file's size every 5 ms and sums its growth. A
// compaction shrinks the file; appends in the interval before one are
// missed, a small undercount.
type walGrowth struct {
	stop  chan struct{}
	done  chan struct{}
	bytes int64
}

func watchWAL(path string) *walGrowth {
	w := &walGrowth{stop: make(chan struct{}), done: make(chan struct{})}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last := size()
		for {
			select {
			case <-w.stop:
				if s := size(); s > last {
					w.bytes += s - last
				}
				return
			case <-t.C:
				s := size()
				if s > last {
					w.bytes += s - last
				}
				last = s
			}
		}
	}()
	return w
}

func (w *walGrowth) total() int64 {
	close(w.stop)
	<-w.done
	return w.bytes
}

func runServe(ctx context.Context, cfg serveConfig) *result {
	runStart := time.Now()
	res := newResult()
	root := filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	defer func() {
		// Flush the removal too (the file system may discard freed blocks
		// at commit), so its I/O lands in this run, not in the next.
		os.RemoveAll(root)
		syscall.Sync()
	}()

	// Set-up: spawn to first 200, several times; the last server stays.
	var setups []float64
	spawns := func(n int, ttl time.Duration) *server {
		var s *server
		for i := 0; i < n; i++ {
			if s != nil {
				s.stop()
			}
			var d time.Duration
			var err error
			s, d, err = spawn(ctx, cfg, filepath.Join(root, strconv.Itoa(len(setups))), ttl)
			if !res.check(err == nil, "spawn sndserve: %v", err) {
				return nil
			}
			setups = append(setups, d.Seconds())
		}
		return s
	}
	srv := spawns(serveSpawns/2, jobTTL)
	if srv == nil {
		return res
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	conns := runtime.NumCPU()
	cl := newClient(srv.base, conns)
	window := time.Duration(windowShare * cfg.seconds * float64(time.Second))
	start := time.Now().Add(50 * time.Millisecond)
	ops := schedule(cfg.seed, serveRate, start, serveWarmup, window)
	windowStart := start.Add(serveWarmup)

	// Window-start readings, taken by a timer so the generator is never
	// held up: server CPU, /v1/metrics, WAL growth and (traced) a CPU
	// profile covering the window.
	var (
		cpu0        time.Duration
		metrics0    string
		metricsErr  error
		wal         *walGrowth
		profile     []byte
		profileErr  error
		profileDone = make(chan struct{})
	)
	scrape := func() (string, error) {
		resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(srv.base + "/v1/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	startReadings := time.AfterFunc(time.Until(windowStart), func() {
		cpu0 = procCPU(srv.cmd.Process.Pid)
		metrics0, metricsErr = scrape()
		wal = watchWAL(filepath.Join(srv.dir, "jobs.wal"))
		if !cfg.traced {
			close(profileDone)
			return
		}
		go func() {
			defer close(profileDone)
			hc := &http.Client{Timeout: window + 30*time.Second}
			resp, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", srv.base, max(int(window.Seconds()+0.5), 1)))
			if err != nil {
				profileErr = err
				return
			}
			defer resp.Body.Close()
			profile, profileErr = io.ReadAll(resp.Body)
		}()
	})

	due := make([]time.Time, len(ops))
	for i, op := range ops {
		due[i] = op.due
	}
	var waits sync.WaitGroup
	sends := openLoop(ctx, due, conns, func(i int) { doOp(ctx, cl, ops[i], &waits) })
	end := time.Now()
	waits.Wait()

	if startReadings.Stop() {
		close(profileDone) // cancelled before the window opened
	}
	<-profileDone // orders the window-start readings before these
	cpu1 := procCPU(srv.cmd.Process.Pid)
	metrics1, err := scrape()
	if err == nil {
		err = metricsErr
	}
	res.check(err == nil, "scrape /v1/metrics: %v", err)
	walBytes := int64(0)
	if wal != nil {
		walBytes = wal.total()
	}

	srv.stop()
	stopped = true

	// Closed loops of fresh cold jobs, each on a server of its own, give
	// the server's throughput and peak resident set: the medians over the
	// servers, so that no one process sets them. A server's rate is the
	// median of its loop's group rates.
	timed := time.Duration((1 - windowShare) * cfg.seconds / loopServers * float64(time.Second))
	var serverRates, rss []float64
	for k := 0; k < loopServers && ctx.Err() == nil; k++ {
		ls := spawns(1, loopJobTTL)
		if ls == nil {
			break
		}
		loop, from, until := closedLoop(ctx, newClient(ls.base, conns), cfg.seed, k, timed)
		rss = append(rss, peakRSSMB(strconv.Itoa(ls.cmd.Process.Pid)))
		ls.stop()
		var finished []time.Time
		for _, op := range loop {
			res.attempted += 1 + len(op.reads) // the submission and its polls
			if op.err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("closed loop %d: %v", k, op.err))
			} else if f := *op.job.Finished; !f.Before(from) && !f.After(until) {
				finished = append(finished, f)
			}
		}
		ops = append(ops, loop...)
		rates := groupRates(finished, loopGroup)
		if !res.check(len(rates) >= minGroups, "serve: %d groups of %d jobs finished in server %d's timed closed loop, want at least %d", len(rates), loopGroup, k, minGroups) {
			continue
		}
		serverRates = append(serverRates, median(rates))
		res.note("serve closed loop %d: %d jobs, %d finished in the timed %.1f s, %d groups of %d at %.1f to %.1f jobs/s, median %.1f",
			k, len(loop), len(finished), until.Sub(from).Seconds(), len(rates), loopGroup, slices.Min(rates), slices.Max(rates), median(rates))
	}
	res.check(len(serverRates) == loopServers, "serve: %d of %d closed loops measured", len(serverRates), loopServers)
	res.set("jobs_per_s", median(serverRates))
	res.set("trials_per_s", loopTrials*median(serverRates))
	res.set("peak_rss_mb", median(rss))
	if s := spawns(serveSpawns-serveSpawns/2, jobTTL); s != nil {
		s.stop()
	}
	res.set("setup_s", median(setups))

	// Every request of the window counts toward attempted and failed;
	// latencies come from requests due inside the window.
	var jobMs, readMs, submitMs, lateMs, queueMs, coldMs, warmMs, lagMs []float64
	jobs := 0
	for i, op := range ops[:len(sends)] {
		res.attempted++ // the submission or list page
		if op.kind != opList {
			res.attempted += len(op.reads) // its status polls
		}
		switch {
		case sends[i].Sent.IsZero():
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("request due at +%v never sent", op.due.Sub(start)))
			continue
		case op.err != nil:
			res.failed++
			res.failures = append(res.failures, op.err.Error())
			continue
		case !op.timed:
			continue
		}
		lateMs = append(lateMs, ms(sends[i].Sent.Sub(op.due)))
		readMs = append(readMs, op.reads...)
		if op.kind == opList {
			continue
		}
		submitMs = append(submitMs, op.submitMs)
		jobMs = append(jobMs, ms(op.job.Finished.Sub(op.due)))
		queueMs = append(queueMs, ms(op.job.Started.Sub(op.job.Created)))
		run := ms(op.job.Finished.Sub(*op.job.Started))
		if op.kind == opCold {
			coldMs = append(coldMs, run)
		} else {
			warmMs = append(warmMs, run)
		}
		lagMs = append(lagMs, ms(op.observed.Sub(*op.job.Finished)))
		jobs++
	}
	res.latency("job_ms", "jobs", jobMs)
	res.latency("read_ms", "status polls and list pages", readMs)
	res.percentile("client.submit_ms_p90", submitMs, 0.9)
	res.percentile("client.late_ms_p90", lateMs, 0.9)
	res.percentile("sndserve.queue_ms_p50", queueMs, 0.5)
	res.percentile("sndserve.run_cold_ms_p50", coldMs, 0.5)
	res.percentile("sndserve.run_warm_ms_p50", warmMs, 0.5)
	res.percentile("client.observe_lag_ms_p50", lagMs, 0.5)
	res.note("serve: %d requests due in a %.1f s window at %g/s over %d connections; generator done %.1f s after the window opened",
		len(lateMs), window.Seconds(), float64(serveRate), conns, end.Sub(windowStart).Seconds())

	delta := func(name string, labels ...string) float64 {
		return promSum(metrics1, name, labels...) - promSum(metrics0, name, labels...)
	}
	hits, misses := delta("snd_cache_hits_total"), delta("snd_cache_misses_total")
	if hits+misses > 0 {
		res.set("runner.cache_hit_ratio", hits/(hits+misses))
	}
	for _, op := range []string{"get", "put"} {
		if n := delta("snd_store_op_duration_seconds_count", `op="`+op+`"`); n > 0 {
			res.set("store."+op+"_ms_mean", 1000*delta("snd_store_op_duration_seconds_sum", `op="`+op+`"`)/n)
		}
	}
	res.set("store.errors", delta("snd_store_errors_total"))
	res.set("sndserve.rejected", delta("snd_jobs_rejected_total"))
	if jobs > 0 {
		res.set("store.wal_bytes_per_job", float64(walBytes)/float64(jobs))
		res.set("sndserve.cpu_ms_per_job", ms(cpu1-cpu0)/float64(jobs))
	}
	if cfg.traced {
		executed := delta("snd_trials_done_total")
		if res.check(profileErr == nil, "fetch sndserve cpu profile: %v", profileErr) {
			p, err := parseProfile(profile)
			if res.check(err == nil, "parse sndserve cpu profile: %v", err) {
				reportSelf(p.selfByLayer(), max(executed, 1), res)
			}
		}
	}

	verifyStart := time.Now()
	verifyServe(ctx, ops, res)
	checkGolden(ctx, "fig3", `{"Nodes":100,"Trials":3,"Seed":11}`, res)
	res.note("serve: traffic and spawns took %.1f s, checking every job result %.1f s", verifyStart.Sub(runStart).Seconds(), time.Since(verifyStart).Seconds())
	return res
}

// newClient is a client of the server at base that makes at most conns
// connections and times client.Wait's polls (see pollTimer).
func newClient(base string, conns int) *client.Client {
	cl := client.New(base, "")
	cl.HTTPClient.Transport = pollTimer{&http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return cl
}

// doOp performs one scheduled request: a list page, timed from its due
// time, or a submission, timed from its due time and then waited on in
// the background with client.Wait at its default cadence.
func doOp(ctx context.Context, cl *client.Client, op *serveOp, waits *sync.WaitGroup) {
	if op.kind == opList {
		_, op.err = cl.ListJobs(ctx, client.ListOptions{Limit: 20})
		op.reads = append(op.reads, ms(time.Since(op.due)))
		return
	}
	if !submit(ctx, cl, op) {
		return
	}
	waits.Add(1)
	go func() {
		defer waits.Done()
		wait(ctx, cl, op)
	}()
}

// submit sends a job op's submission, timed from its due time, and keeps
// the job the server answered with in op.job.
func submit(ctx context.Context, cl *client.Client, op *serveOp) bool {
	sent := time.Now()
	job, err := cl.SubmitJob(ctx, client.SubmitRequest{Experiment: "fig3", Params: op.params})
	op.submitMs = ms(time.Since(op.due))
	if err != nil {
		op.err = fmt.Errorf("submit: %w", err)
		return false
	}
	op.job = job
	op.fresh = !job.Created.Before(sent.Add(-time.Millisecond))
	return true
}

// wait polls a submitted job with client.Wait until it is terminal and
// records it. pollTimer times each poll into op.reads.
func wait(ctx context.Context, cl *client.Client, op *serveOp) {
	job, err := cl.Wait(context.WithValue(ctx, pollOp{}, op), op.job.ID, client.DefaultPollInterval)
	op.observed = time.Now()
	op.job = job
	switch {
	case err != nil:
		op.err = fmt.Errorf("poll: %w", err)
	case job.Status != "done":
		op.err = fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	case job.Started == nil || job.Finished == nil:
		op.err = fmt.Errorf("job %s done without started_at/finished_at", job.ID)
	}
}

// pollOp is the context key under which wait passes its op to pollTimer.
type pollOp struct{}

// pollTimer is the client's transport. It times every request made under
// a context carrying a pollOp, from the moment client.Wait issues it (so
// including the wait for one of the connections) until its body is
// closed, and appends the time to that op's reads. One op's polls run one
// after another on one goroutine.
type pollTimer struct{ next http.RoundTripper }

func (t pollTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	op, _ := req.Context().Value(pollOp{}).(*serveOp)
	if op == nil {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		op.reads = append(op.reads, ms(time.Since(start)))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { op.reads = append(op.reads, ms(time.Since(start))) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// closedLoop keeps loopJobs fresh cold jobs in flight: each of loopJobs
// senders submits one, waits for it with client.Wait, and submits the
// next. The jobs share the client's connections. Once the first
// loopWarmJobs jobs have finished, the loop runs for timed more and then
// stops submitting. It returns every job it submitted, in submission
// order, and the timed span. Loop k's jobs are distinct from every other
// loop's.
func closedLoop(ctx context.Context, cl *client.Client, seed int64, k int, timed time.Duration) (ops []*serveOp, from, until time.Time) {
	var (
		mu       sync.Mutex
		warmDone int
		wg       sync.WaitGroup
	)
	running := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return until.IsZero() || time.Now().Before(until)
	}
	for w := 0; w < loopJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && running() {
				mu.Lock()
				i := len(ops)
				j := k*loopSeedStride + i
				op := &serveOp{kind: opCold, due: time.Now(), cold: loopSeedBase + j, params: loopParams(seed, j)}
				ops = append(ops, op)
				mu.Unlock()
				if submit(ctx, cl, op) {
					wait(ctx, cl, op)
				}
				if i < loopWarmJobs {
					mu.Lock()
					if warmDone++; warmDone == loopWarmJobs {
						from = time.Now()
						until = from.Add(timed)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ops, from, until
}

// verifyServe checks every job result: a cold job's must equal the same
// params run in-process through the registry, and a warm job's must equal
// its cold twin's; a warm submission must have re-run the job, not found
// it still in the table.
func verifyServe(ctx context.Context, ops []*serveOp, res *result) {
	e, _ := exp.Lookup("fig3")
	eng := runner.New(runner.Options{Workers: runtime.NumCPU()})
	compact := func(b []byte) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, b); err != nil {
			return "invalid JSON: " + err.Error()
		}
		return buf.String()
	}
	cold := map[int]string{}
	for _, op := range ops {
		if op.kind != opCold || op.err != nil {
			continue
		}
		bound, err := e.Decode(op.params)
		if !res.check(err == nil, "decode %s: %v", op.params, err) {
			continue
		}
		r, err := bound.Run(ctx, eng)
		if !res.check(err == nil, "in-process fig3 %s: %v", op.params, err) {
			continue
		}
		want, err := json.Marshal(r)
		if !res.check(err == nil, "encode in-process fig3 %s: %v", op.params, err) {
			continue
		}
		got := compact(op.job.Result)
		cold[op.cold] = got
		res.check(op.fresh, "cold job %s was not created by its submission", op.job.ID)
		res.check(got == string(want), "job %s result differs from fig3 %s run in-process", op.job.ID, op.params)
	}
	for _, op := range ops {
		if op.kind != opWarm || op.err != nil {
			continue
		}
		twin, ok := cold[op.cold]
		if !ok {
			continue // the cold twin failed and is already counted
		}
		res.check(op.fresh, "warm job %s was answered from the job table instead of re-run", op.job.ID)
		res.check(compact(op.job.Result) == twin, "warm job %s result differs from its cold twin", op.job.ID)
	}
}
