package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer samples is one or two outliers, not a percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with an error naming the shortfall, when fewer than minBeyond
// samples lie above that rank — p50 needs 20 samples, p90 100, p99 1000.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g refused: %d of n=%d samples beyond it, need %d", q*100, max(beyond, 0), n, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailQuantiles are the candidates tail reports, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tail reports the highest of p99.9, p99, p90 and p50 that has minBeyond
// samples above it, and refuses when not even the median has.
func tail(xs []float64) (q, v float64, err error) {
	for _, q := range tailQuantiles {
		if v, err := quantile(xs, q); err == nil {
			return q, v, nil
		}
	}
	return 0, 0, fmt.Errorf("no percentile supported: n=%d, need %d", len(xs), 2*minBeyond)
}

// median is the plain middle value (mean of the two middle values for
// even n). Set-up time uses it over a handful of repetitions, where a
// percentile would be refused.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// groupRates sorts completion times and returns, for each run of g
// consecutive gaps between them, g divided by the run's span: the
// completion rate in events per second, one figure per group.
func groupRates(done []time.Time, g int) []float64 {
	s := append([]time.Time(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i].Before(s[j]) })
	var rates []float64
	for k := 0; (k+1)*g < len(s); k++ {
		if span := s[(k+1)*g].Sub(s[k*g]); span > 0 {
			rates = append(rates, float64(g)/span.Seconds())
		}
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendTimes is when one open-loop request left the generator and when its
// handler returned.
type sendTimes struct{ Sent, Done time.Time }

// openLoop issues len(due) requests, request i at due[i] or as soon after
// as one of conns senders is free. Requests are dispatched in due order,
// so a request that stalls its sender delays every request due after it
// once the other senders are busy too; callers time each request from its
// due time, and Sent−due is how late the generator ran. Requests not yet
// dispatched when ctx ends are skipped and keep zero times.
func openLoop(ctx context.Context, due []time.Time, conns int, do func(i int)) []sendTimes {
	out := make([]sendTimes, len(due))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].Sent = time.Now()
				do(i)
				out[i].Done = time.Now()
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, at := range due {
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return out
}
