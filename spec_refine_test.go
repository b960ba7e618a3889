package bipartite

import (
	"errors"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// TestPushRelabelBidBudget gates the push-relabel engine's work, not its
// wall clock: from a TwoSided warm start, after the Pothen–Fan+ sweep, it
// must finish within 2·(n+m) bids on the families where a bid loop without global relabeling blows
// up — heavy rank deficiency (doomed labels climb one step per bid),
// long thin paths and a 3D grid.
func TestPushRelabelBidBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"rankdef", gen.RankDeficient(10000, 3000, 4, 1)},
		{"longthin", gen.LongThinPath(10000)},
		{"grid3d", gen.Grid3D(22, 22, 22, false)},
	} {
		g := newGraph(tc.a)
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := g.Match(Spec{Seed: seed}, &Options{ScalingIterations: 5, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := exact.NewPRRefinerWs(tc.a, g.transpose(), res.Matching, &exact.Workspace{})
			mt := r.Run()
			if mt.Size != g.Sprank() {
				t.Fatalf("%s seed %d: size %d != sprank %d", tc.name, seed, mt.Size, g.Sprank())
			}
			nm := tc.a.RowsN + tc.a.ColsN
			if r.Bids() > 2*nm {
				t.Fatalf("%s seed %d: %d bids > 2·(n+m) = %d", tc.name, seed, r.Bids(), 2*nm)
			}
			t.Logf("%s seed %d: %d bids = %.2f·(n+m)", tc.name, seed, r.Bids(), float64(r.Bids())/float64(nm))
		}
	}
}

// TestRefineCancelAfterFirstPoll arms a cancellation hook that fires after
// its first poll on a 20k-row grid. The cheap warm start polls nothing,
// so the refinement engine takes the first poll itself: RefineExact,
// single and ensemble, must return ErrCanceled, and the session must serve
// a correct result afterwards.
func TestRefineCancelAfterFirstPoll(t *testing.T) {
	g := Grid2D(100, 200)
	sprank := g.Sprank()
	m := g.NewMatcher(&Options{Workers: 1})
	for _, ens := range []int{1, 4} {
		spec := Spec{Algorithm: AlgCheapVertex, Seed: 3, Refine: RefineExact, Ensemble: ens, Sequential: true}
		polls := 0
		m.setCancel(func() bool { polls++; return polls > 1 })
		if _, err := m.Run(spec); !errors.Is(err, ErrCanceled) {
			t.Fatalf("ensemble %d: %v after the hook fired, want ErrCanceled", ens, err)
		}
		m.setCancel(nil)
		res, err := m.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size != sprank || res.RefinedWith != RefineExact {
			t.Fatalf("ensemble %d: size %d with %v after a cancel, want %d with exact",
				ens, res.Matching.Size, res.RefinedWith, sprank)
		}
	}
}
