package exact

import (
	"testing"

	"repro/internal/gen"
)

// TestPRCancel: a hook that fires after its first poll stops the sweep at
// its first chunk boundary, and one installed after the sweep stops
// push-relabel after its first bid budget; the held matching stays valid,
// the refiner does not claim to be done, and later steps make no progress.
func TestPRCancel(t *testing.T) {
	a := gen.RankDeficient(3000, 900, 4, 11)
	for _, phase := range []string{"sweep", "bids"} {
		polls := 0
		cancel := func() bool { polls++; return polls > 1 }
		r := NewPRRefiner(a, nil)
		lo, hi := 1, sweepChunk
		if phase == "sweep" {
			r.SetCancel(cancel)
			r.Run()
		} else {
			r.Step(1) // the whole sweep, uncanceled
			lo, hi = r.Size(), r.Size()+100
			r.SetCancel(cancel)
			r.Step(100)
		}
		size := r.Size()
		validRefinerMatching(t, a, r.Matching())
		if r.Done() {
			t.Fatalf("%s: canceled run claims a proven-maximum matching", phase)
		}
		if size < lo || size > hi {
			t.Fatalf("%s: canceled run matched %d rows, want %d..%d", phase, size, lo, hi)
		}
		if !r.Step(a.RowsN) || r.Size() != size {
			t.Fatalf("%s: canceled refiner made progress", phase)
		}
	}
}

// TestPRWorkspaceReuse runs the engine repeatedly on one Workspace — the
// Matcher session pattern, interleaved with the other refiners — and
// checks every run equals a fresh construction.
func TestPRWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	for seed, n := range []int{500, 350, 450, 300} {
		seed := uint64(seed + 1)
		a := gen.RankDeficient(n, 30, 3, seed)
		at := a.Transpose()
		init := randomInit(a, seed)
		NewHKRefinerWs(a, init, ws).Run()
		got := NewPRRefinerWs(a, at, init, ws).Run()
		want, _ := runPR(a, init)
		for i := range want.RowMate {
			if got.RowMate[i] != want.RowMate[i] {
				t.Fatalf("seed %d: ws RowMate[%d] differs", seed, i)
			}
		}
	}
}
