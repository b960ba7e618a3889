package main

import (
	"context"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due offsets of an open-loop phase: arrivals
// of a Poisson process at rate per second, up to dur.
func poissonSchedule(rate float64, dur time.Duration, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// sample is one completed request of a load phase.
type sample struct {
	k       int           // request index
	at      time.Duration // when the request was due (open loop) or sent (closed loop), from the phase start
	latency float64       // ms; from the due time in an open loop, from the send in a closed loop
	service float64       // ms from the send to the answer
	late    float64       // ms the send trailed its due time (open loop only)
	err     error
}

// openLoop sends request k at due[k] after the phase starts, on at most
// conns concurrent senders. A request that cannot start on time because
// every sender is busy waits, and its latency still counts from when it
// was due: a stall is charged to every request it delays.
func openLoop(due []time.Duration, conns int, do func(k int) error) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(due); k = int(next.Add(1)) - 1 {
				at := start.Add(due[k])
				time.Sleep(time.Until(at))
				sent := time.Now()
				err := do(k)
				done := time.Now()
				out[k] = sample{k: k, at: due[k], latency: msBetween(at, done), service: msBetween(sent, done),
					late: msBetween(at, sent), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one is answered, until dur has passed; request indices
// come from one shared counter.
func closedLoop(dur time.Duration, conns int, do func(k int) error) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				sent := time.Now()
				err := do(k)
				ms := msBetween(sent, time.Now())
				mine = append(mine, sample{k: k, at: sent.Sub(start), latency: ms, service: ms, err: err})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// latencyStats summarizes an open-loop phase: percentiles over the
// answered requests, and the share answered correctly within limit (a
// failure counts as a miss).
func latencyStats(ss []sample, limit time.Duration) (p50, p99, slo float64) {
	var lat []float64
	in := 0
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		lat = append(lat, s.latency)
		if s.latency <= float64(limit.Nanoseconds())/1e6 {
			in++
		}
	}
	if len(ss) == 0 {
		return 0, 0, 0
	}
	return percentile(lat, 50), percentile(lat, 99), float64(in) / float64(len(ss))
}

// loadClient is the generator's HTTP client: at most conns connections,
// with a count of how many it dialed.
type loadClient struct {
	hc    *http.Client
	dials atomic.Int64
}

func newLoadClient(conns int) *loadClient {
	lc := &loadClient{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			lc.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	lc.hc = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return lc
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }
