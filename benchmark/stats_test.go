package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so quantile must sort
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{19, 0.5, 0}, {20, 0.5, 10}, {21, 0.5, 11},
		{99, 0.9, 0}, {100, 0.9, 90}, {110, 0.9, 99},
		{999, 0.99, 0}, {1000, 0.99, 990},
	} {
		got, err := quantile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("quantile(n=%d, q=%g) = %g, want refusal", c.n, c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g", c.n, c.q, got, err, c.want)
		}
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		q, v, err := tail(seq(c.n))
		want, _ := quantile(seq(c.n), c.wantQ)
		if err != nil || q != c.wantQ || v != want {
			t.Errorf("tail(n=%d) = p%g %g, %v; want p%g %g", c.n, q*100, v, err, c.wantQ*100, want)
		}
	}
	if _, _, err := tail(seq(19)); err == nil {
		t.Error("tail(n=19) reported a percentile; want refusal")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

// A request that stalls its only sender delays every request due after
// it, and that delay shows up as lateness (sent − due), so timing from the
// due time charges the stall to each of them.
func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	start := time.Now().Add(20 * time.Millisecond)
	due := []time.Time{start, start.Add(10 * time.Millisecond), start.Add(20 * time.Millisecond), start.Add(200 * time.Millisecond)}
	sends := openLoop(context.Background(), due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, s := range sends {
		if s.Sent.Before(due[i]) {
			t.Errorf("request %d sent %v before it was due", i, due[i].Sub(s.Sent))
		}
	}
	for _, i := range []int{1, 2} {
		if late := sends[i].Sent.Sub(due[i]); late < stall-due[i].Sub(due[0])-5*time.Millisecond {
			t.Errorf("request %d late by %v; the %v stall of request 0 should delay it by about %v",
				i, late, stall, stall-due[i].Sub(due[0]))
		}
	}
	// Due after the stall ended: on time.
	if late := sends[3].Sent.Sub(due[3]); late > 40*time.Millisecond {
		t.Errorf("request 3, due after the stall, was %v late", late)
	}
}

// With a second sender free, a stall delays nobody.
func TestOpenLoopSpareSenderAbsorbsStall(t *testing.T) {
	start := time.Now().Add(20 * time.Millisecond)
	due := []time.Time{start, start.Add(10 * time.Millisecond), start.Add(20 * time.Millisecond)}
	sends := openLoop(context.Background(), due, 2, func(i int) {
		if i == 0 {
			time.Sleep(80 * time.Millisecond)
		}
	})
	for i := 1; i < len(due); i++ {
		if late := sends[i].Sent.Sub(due[i]); late > 40*time.Millisecond {
			t.Errorf("request %d was %v late with a sender free", i, late)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	due := []time.Time{start, start.Add(time.Hour)}
	var ran atomic.Int32
	done := make(chan []sendTimes)
	go func() { done <- openLoop(ctx, due, 1, func(int) { ran.Add(1) }) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	sends := <-done
	if ran.Load() != 1 || !sends[1].Sent.IsZero() {
		t.Errorf("after cancel: %d requests ran, request 1 sent at %v; want only request 0", ran.Load(), sends[1].Sent)
	}
}

func TestScheduleIsSeededAndWarmsOnlyEvictedJobs(t *testing.T) {
	start := time.Unix(0, 0)
	a := schedule(7, 80, start, 3*time.Second, 10*time.Second)
	b := schedule(7, 80, start, 3*time.Second, 10*time.Second)
	if len(a) != 13*80 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d, %d; want %d", len(a), len(b), 13*80)
	}
	coldDue := map[int]time.Time{}
	warmed := map[int]bool{}
	counts := map[opKind]int{}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].cold != b[i].cold || string(a[i].params) != string(b[i].params) {
			t.Fatalf("op %d differs between two schedules from the same seed", i)
		}
		counts[a[i].kind]++
		switch a[i].kind {
		case opCold:
			coldDue[a[i].cold] = a[i].due
		case opWarm:
			cd, ok := coldDue[a[i].cold]
			if !ok || a[i].due.Sub(cd) < warmDelay || warmed[a[i].cold] {
				t.Errorf("warm op %d resubmits cold job %d due %v earlier (warmed before: %v)", i, a[i].cold, a[i].due.Sub(cd), warmed[a[i].cold])
			}
			warmed[a[i].cold] = true
		}
	}
	if counts[opCold] == 0 || counts[opWarm] == 0 || counts[opList] == 0 {
		t.Errorf("schedule mix %v lacks a request kind", counts)
	}
}

func TestGroupRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Ten events 100 ms apart, then ten 50 ms apart, handed over unsorted.
	var done []time.Time
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		if i > 10 {
			at = time.Second + time.Duration(i-10)*50*time.Millisecond
		}
		done = append(done, t0.Add(at))
	}
	done[0], done[19] = done[19], done[0]
	got := groupRates(done, 5)
	want := []float64{10, 10, 20} // the last 4 gaps make no whole group
	if len(got) != len(want) {
		t.Fatalf("groupRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("group %d: %g per s, want %g", i, got[i], want[i])
		}
	}
}
