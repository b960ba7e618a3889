package exact

import (
	"testing"

	"repro/internal/gen"
)

// TestPRCancel: a hook that fires after its first poll stops the sweep at
// its first chunk boundary and push-relabel after its first bid budget;
// the held matching stays valid, the refiner does not claim to be done,
// and later steps make no progress.
func TestPRCancel(t *testing.T) {
	a := gen.Grid2D(100, 200)
	for _, sweep := range []bool{false, true} {
		polls := 0
		r := NewPRRefiner(a, nil)
		r.SetSweep(sweep)
		r.SetCancel(func() bool { polls++; return polls > 1 })
		limit := sweepChunk
		if sweep {
			r.Run()
		} else {
			limit = 100
			r.Step(limit)
		}
		size := r.Size()
		validRefinerMatching(t, a, r.Matching())
		if r.Done() {
			t.Fatalf("sweep=%v: canceled run claims a proven-maximum matching", sweep)
		}
		if size == 0 || size > limit {
			t.Fatalf("sweep=%v: canceled run matched %d rows, want 1..%d", sweep, size, limit)
		}
		if !r.Step(a.RowsN) || r.Size() != size {
			t.Fatalf("sweep=%v: canceled refiner made progress", sweep)
		}
	}
}

// TestPRWorkspaceReuse runs both engines repeatedly on one Workspace —
// the Matcher session pattern, interleaved with the other refiners — and
// checks every run equals a fresh construction.
func TestPRWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	for seed, n := range []int{500, 350, 450, 300} {
		seed := uint64(seed + 1)
		a := gen.RankDeficient(n, 30, 3, seed)
		at := a.Transpose()
		init := randomInit(a, seed)
		NewHKRefinerWs(a, init, ws).Run()
		for _, sweep := range []bool{false, true} {
			r := NewPRRefinerWs(a, at, init, ws)
			r.SetSweep(sweep)
			got := r.Run()
			want, _ := runPR(a, init, sweep)
			for i := range want.RowMate {
				if got.RowMate[i] != want.RowMate[i] {
					t.Fatalf("seed %d sweep=%v: ws RowMate[%d] differs", seed, sweep, i)
				}
			}
		}
	}
}
