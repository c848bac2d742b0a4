package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"dataproxy/pkg/client"
)

// loadResult is what one closed-loop timed run observed.
type loadResult struct {
	windows   []window // consecutive slices of the run the metrics are taken from
	attempted int
	failed    int
	errs      []string // the first few failures, for the log
}

// window is one slice of a timed run: how long it lasted, the latency of
// every op that completed in it, and the server CPU time spent over it.
type window struct {
	seconds float64
	lat     []time.Duration
	cpu     float64
}

// closedLoop runs `clients` closed-loop clients over ops 0..total-1 in
// order: each client sends its next op only when its previous one has
// completed.  Ops are handed out in rounds of roundLen; once `seconds` have
// passed, no new round starts, so every run covers whole rounds of the
// generated mix and per-op figures do not depend on where the clock cut it.
//
// With width > 0 the run is cut into whole windows of that width, each with
// the ops that completed in it and the CPU time cpu() read over it; the
// partial window at the end is dropped.  Otherwise, or when the run is
// shorter than one width, the whole run from the first send to the last
// completion is one window.
func closedLoop(ctx context.Context, c *client.Client, clients, roundLen, total int, seconds float64, width time.Duration, cpu func() float64,
	do func(ctx context.Context, c *client.Client, i int) error) loadResult {
	cpu0 := cpu()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	next := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= total || ctx.Err() != nil || (next%roundLen == 0 && !time.Now().Before(deadline)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var res loadResult
	var lat []time.Duration
	var last time.Time
	done := make(chan struct{})
	var ticking sync.WaitGroup
	if width > 0 {
		tick := time.NewTicker(width)
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			defer tick.Stop()
			from, cpuFrom, n := start, cpu0, 0
			for {
				select {
				case <-done:
					return
				case now := <-tick.C:
					used := cpu()
					mu.Lock()
					w := window{seconds: now.Sub(from).Seconds(), lat: append([]time.Duration(nil), lat[n:]...), cpu: used - cpuFrom}
					n = len(lat)
					mu.Unlock()
					res.windows = append(res.windows, w)
					from, cpuFrom = now, used
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				err := do(ctx, c, i)
				t1 := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					lat = append(lat, t1.Sub(t0))
				}
				if t1.After(last) {
					last = t1
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	ticking.Wait()
	if len(res.windows) == 0 {
		res.windows = []window{{seconds: last.Sub(start).Seconds(), lat: lat, cpu: cpu() - cpu0}}
	}
	return res
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
