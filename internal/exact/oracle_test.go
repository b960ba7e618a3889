package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// bruteForce computes the exact maximum matching size by exponential
// search over column subsets (memoized on (row, used-column bitmask)).
// Only usable for cols <= 20; it is the ground-truth oracle for the three
// polynomial algorithms.
func bruteForce(a *sparse.CSR) int {
	if a.ColsN > 20 {
		panic("bruteForce: too many columns")
	}
	memo := map[uint64]int{}
	var rec func(i int, used uint32) int
	rec = func(i int, used uint32) int {
		if i == a.RowsN {
			return 0
		}
		key := uint64(i)<<32 | uint64(used)
		if v, ok := memo[key]; ok {
			return v
		}
		best := rec(i+1, used) // leave row i unmatched
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			j := a.Idx[p]
			if used&(1<<uint(j)) == 0 {
				if v := 1 + rec(i+1, used|1<<uint(j)); v > best {
					best = v
				}
			}
		}
		memo[key] = best
		return best
	}
	return rec(0, 0)
}

func TestBruteForceOracleKnown(t *testing.T) {
	a := sparse.FromDense([][]int{
		{1, 1, 0},
		{1, 0, 0},
		{0, 1, 0},
	})
	if got := bruteForce(a); got != 2 {
		t.Fatalf("oracle %d want 2", got)
	}
	if got := bruteForce(gen.Identity(8)); got != 8 {
		t.Fatalf("oracle identity %d", got)
	}
}

// TestAllSolversMatchOracle compares Hopcroft–Karp, MC21 and the
// Pothen–Fan+ sweep followed by push-relabel against exhaustive search on
// thousands of small random instances.
func TestAllSolversMatchOracle(t *testing.T) {
	f := func(seed uint64, r8, c8, d uint8) bool {
		rows := int(r8)%10 + 1
		cols := int(c8)%10 + 1
		nnz := int(d) % (rows*cols + 1)
		a := gen.ER(rows, cols, nnz, seed)
		want := bruteForce(a)
		if HopcroftKarp(a, nil).Size != want {
			t.Logf("HK wrong on seed=%d %dx%d nnz=%d", seed, rows, cols, nnz)
			return false
		}
		if MC21(a, nil).Size != want {
			t.Logf("MC21 wrong on seed=%d %dx%d nnz=%d", seed, rows, cols, nnz)
			return false
		}
		if mt, _ := runPR(a, nil); mt.Size != want {
			t.Logf("sweep+PushRelabel wrong on seed=%d %dx%d nnz=%d", seed, rows, cols, nnz)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPushRelabelMatchesHKOnLargerInstances(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		n := 500 + int(seed)*100
		a := gen.ERAvgDeg(n, n, float64(seed%5)+1, seed)
		hk := HopcroftKarp(a, nil)
		pr, _ := runPR(a, nil)
		checkMatching(t, a, pr)
		if pr.Size != hk.Size {
			t.Fatalf("seed %d: PushRelabel %d != HK %d", seed, pr.Size, hk.Size)
		}
	}
}

// prFamilies are the inputs the push-relabel engine is held to
// Hopcroft–Karp on: the adversarial families, rectangular shapes both
// ways, and inputs with empty rows and columns.
func prFamilies() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"rankdef":     gen.RankDeficient(3000, 900, 4, 11),
		"longthin":    gen.LongThinPath(5000),
		"grid3d":      gen.Grid3D(12, 12, 12, false),
		"grid2d":      gen.Grid2D(50, 60),
		"powerlaw":    gen.PowerLaw(3000, 3, 1.5, 300, 12),
		"wide":        gen.ER(40, 90, 200, 3),
		"tall":        gen.ER(90, 40, 200, 3),
		"skewed":      gen.SkewedDegree(2000, 1500, 4, 3, 15),
		"badks":       gen.BadKS(64, 8),
		"identity":    gen.Identity(50),
		"emptyrowcol": gen.ER(600, 500, 300, 16),
		"allempty":    sparse.FromDense([][]int{{0, 0, 0}, {0, 0, 0}}),
		"nocols":      {RowsN: 4, ColsN: 0, Ptr: []int{0, 0, 0, 0, 0}},
		"zero":        {RowsN: 0, ColsN: 0, Ptr: []int{0}},
	}
}

// runPR runs the sweep + push-relabel refiner to completion.
func runPR(a *sparse.CSR, init *Matching) (*Matching, *PRRefiner) {
	r := NewPRRefiner(a, init)
	return r.Run(), r
}

// freeRowsWithEdges counts the rows of a that mt leaves free and that have
// at least one edge — the rows a refiner queues.
func freeRowsWithEdges(a *sparse.CSR, mt *Matching) int {
	free := 0
	for i, j := range mt.RowMate {
		if j == NIL && a.Degree(i) > 0 {
			free++
		}
	}
	return free
}

// TestPushRelabelRectangularAndDeficient: the sweep + push-relabel engine
// reaches Hopcroft–Karp's size on every family from a nil, a partial and
// an already-maximum warm start, returns a valid matching, leaves the warm
// start untouched, and is deterministic. From a maximum warm start the
// sweep augments nothing, so the first bid relabels and caps every column
// a free row can reach: each free row with an edge bids exactly once.
func TestPushRelabelRectangularAndDeficient(t *testing.T) {
	for name, a := range prFamilies() {
		maxm := HopcroftKarp(a, nil)
		warm := map[string]*Matching{
			"nil":     nil,
			"partial": randomInit(a, 3),
			"maximum": maxm,
		}
		for wname, init := range warm {
			var initRows []int32
			if init != nil {
				initRows = append([]int32(nil), init.RowMate...)
			}
			mt, r := runPR(a, init)
			checkMatching(t, a, mt)
			if mt.Size != maxm.Size {
				t.Fatalf("%s/%s: size %d != HK %d", name, wname, mt.Size, maxm.Size)
			}
			if !r.Done() || r.Step(1) {
				t.Fatalf("%s/%s: finished refiner not done", name, wname)
			}
			if wname == "maximum" {
				if free := freeRowsWithEdges(a, init); r.Bids() != free {
					t.Fatalf("%s/maximum: %d bids, want one per free row with an edge (%d)", name, r.Bids(), free)
				}
			}
			for i, j := range initRows {
				if init.RowMate[i] != j {
					t.Fatalf("%s/%s: warm start row %d mutated", name, wname, i)
				}
			}
			again, _ := runPR(a, init)
			for i := range mt.RowMate {
				if again.RowMate[i] != mt.RowMate[i] {
					t.Fatalf("%s/%s: rerun differs at row %d", name, wname, i)
				}
			}
		}
	}
}

func TestPushRelabelWarmStart(t *testing.T) {
	a := gen.FullyIndecomposable(400, 2, 7)
	init := NewMatching(400, 400)
	for i := 0; i < 200; i++ {
		init.RowMate[i] = int32(i)
		init.ColMate[i] = int32(i)
		init.Size++
	}
	pr, _ := runPR(a, init)
	checkMatching(t, a, pr)
	if pr.Size != 400 {
		t.Fatalf("warm-started push-relabel size %d want 400", pr.Size)
	}
	if init.Size != 200 {
		t.Fatal("warm start mutated")
	}
}
