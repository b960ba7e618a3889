package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A request that waits for a busy sender is timed from when it was due,
// not from when it was finally sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	out := openLoop(due, 1, func(k int) error {
		if k == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	stallMs := float64(stall.Milliseconds())
	for _, k := range []int{1, 2} {
		s := out[k]
		if s.k != k || s.at != due[k] {
			t.Fatalf("sample %d is %+v", k, s)
		}
		// Sent once the first request returned, about stall−due late, and
		// answered at once: latency ≈ late, service ≈ 0.
		wantLate := stallMs - float64(due[k].Milliseconds())
		if s.late < wantLate-1 || s.latency < s.late || s.latency > s.late+stallMs/2 {
			t.Errorf("request %d: late %.2f ms, latency %.2f ms; want late ≥ %.0f ms and latency ≈ late", k, s.late, s.latency, wantLate)
		}
		if s.service > s.latency {
			t.Errorf("request %d: service %.2f ms exceeds latency %.2f ms", k, s.service, s.latency)
		}
	}
	if out[0].latency < stallMs || out[0].late > stallMs/2 {
		t.Errorf("first request: %+v", out[0])
	}
}

func TestOpenLoopUsesAtMostConns(t *testing.T) {
	var inflight, peak atomic.Int64
	due := make([]time.Duration, 40)
	openLoop(due, 3, func(int) error {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("%d requests in flight at once with 3 senders", p)
	}
}

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(200, 5*time.Second, 7)
	b := poissonSchedule(200, 5*time.Second, 7)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	// 1000 arrivals expected; a Poisson count is within ±4σ (±126) of it.
	if len(a) < 874 || len(a) > 1126 {
		t.Errorf("%d arrivals in 5s at 200/s", len(a))
	}
	for k := 1; k < len(a); k++ {
		if a[k] < a[k-1] || a[k] >= 5*time.Second {
			t.Fatalf("arrival %d at %v after %v", k, a[k], a[k-1])
		}
	}
}

func TestLatencyStatsCountsFailuresAsMisses(t *testing.T) {
	ss := []sample{{latency: 1}, {latency: 2}, {latency: 3}, {latency: 500}, {latency: 1, err: errTest}}
	p50, _, slo := latencyStats(ss, 100*time.Millisecond)
	if p50 != 2.5 {
		t.Errorf("p50 over answered requests = %v, want 2.5", p50)
	}
	if slo != 3.0/5 {
		t.Errorf("slo = %v, want 0.6 (one late, one failed)", slo)
	}
}

var errTest = errors.New("refused")
