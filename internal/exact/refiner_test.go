package exact

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// validRefinerMatching checks mt is internally consistent and every matched
// pair is an edge of a — the invariant both refiners promise to hold
// between incremental advances.
func validRefinerMatching(t *testing.T, a *sparse.CSR, mt *Matching) {
	t.Helper()
	size := 0
	for i, j := range mt.RowMate {
		if j == NIL {
			continue
		}
		if mt.ColMate[j] != int32(i) {
			t.Fatalf("row %d -> col %d but col %d -> row %d", i, j, j, mt.ColMate[j])
		}
		found := false
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			if a.Idx[p] == j {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", i, j)
		}
		size++
	}
	if size != mt.Size {
		t.Fatalf("size %d but %d matched rows", mt.Size, size)
	}
}

// TestHKRefinerIncremental drives Hopcroft–Karp one phase at a time and
// checks the matching is valid and monotone between phases, reaches the
// same maximum as the one-shot call, and that Done/Phase agree at the end.
func TestHKRefinerIncremental(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		a := gen.ER(400, 400, 2000, seed)
		want := HopcroftKarp(a, nil).Size

		r := NewHKRefiner(a, nil)
		phases, prev := 0, 0
		for r.Phase() {
			phases++
			validRefinerMatching(t, a, r.Matching())
			if r.Size() < prev {
				t.Fatalf("seed %d: size shrank %d -> %d", seed, prev, r.Size())
			}
			prev = r.Size()
			if phases > 400 {
				t.Fatalf("seed %d: refiner did not converge", seed)
			}
		}
		if !r.Done() {
			t.Fatalf("seed %d: Phase returned false but Done is false", seed)
		}
		if r.Phase() {
			t.Fatalf("seed %d: Phase after done reported progress", seed)
		}
		if r.Size() != want {
			t.Fatalf("seed %d: incremental %d != one-shot %d", seed, r.Size(), want)
		}
	}
}

// TestPRRefinerBoundedSteps drives the push-relabel engine in tiny step
// budgets — the first Step is the whole Pothen–Fan+ pass and makes no
// bids, as in the ensemble — and checks validity, monotone size, Done/Step
// agreement and agreement with Hopcroft–Karp.
func TestPRRefinerBoundedSteps(t *testing.T) {
	cases := map[string]*sparse.CSR{
		"er2":     gen.ER(300, 320, 1500, 2),
		"er6":     gen.ER(300, 320, 1500, 6),
		"er10":    gen.ER(300, 320, 1500, 10),
		"rankdef": gen.RankDeficient(600, 180, 4, 6),
		"grid":    gen.Grid3D(8, 8, 8, false),
	}
	for name, a := range cases {
		want := HopcroftKarp(a, nil).Size
		r := NewPRRefiner(a, nil)
		prev, steps := 0, 0
		for r.Step(7) {
			steps++
			if steps == 1 && r.Bids() != 0 {
				t.Fatalf("%s: the sweep step made %d bids", name, r.Bids())
			}
			if steps%50 == 1 {
				validRefinerMatching(t, a, r.Matching())
			}
			if r.Size() < prev {
				t.Fatalf("%s: size shrank %d -> %d", name, prev, r.Size())
			}
			prev = r.Size()
			if steps > 1_000_000 {
				t.Fatalf("%s: refiner did not converge", name)
			}
		}
		if !r.Done() || r.Step(7) {
			t.Fatalf("%s: Step returned false but the refiner is not done", name)
		}
		validRefinerMatching(t, a, r.Matching())
		if r.Size() != want {
			t.Fatalf("%s: incremental PR %d != HK %d", name, r.Size(), want)
		}
	}
}

// TestRefinersWarmStart: both refiners warm-started from a partial matching
// keep every guarantee — and the one-shot wrappers (which now delegate to
// them) agree with each other.
func TestRefinersWarmStart(t *testing.T) {
	for _, seed := range []uint64{3, 7} {
		a := gen.ER(350, 350, 1700, seed)
		// Build a greedy warm start.
		init := NewMatching(a.RowsN, a.ColsN)
		for i := 0; i < a.RowsN; i++ {
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				j := a.Idx[p]
				if init.ColMate[j] == NIL {
					init.RowMate[i] = j
					init.ColMate[j] = int32(i)
					init.Size++
					break
				}
			}
		}
		want := HopcroftKarp(a, nil).Size
		hk := HopcroftKarp(a, init)
		pr := NewPRRefiner(a, init).Run()
		if hk.Size != want || pr.Size != want {
			t.Fatalf("seed %d: warm-started HK %d / PR %d != maximum %d", seed, hk.Size, pr.Size, want)
		}
		if init.Size > want {
			t.Fatalf("seed %d: warm start larger than maximum", seed)
		}
		validRefinerMatching(t, a, hk)
		validRefinerMatching(t, a, pr)
	}
}
