package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestKoenigCertificateOnRandomInstances(t *testing.T) {
	f := func(seed uint64, r8, c8, d uint8) bool {
		rows := int(r8)%60 + 1
		cols := int(c8)%60 + 1
		nnz := (int(d) % 6) * rows
		a := gen.ER(rows, cols, nnz, seed)
		for _, mt := range []*Matching{
			HopcroftKarp(a, nil), MC21(a, nil), NewPRRefiner(a, nil).Run(),
		} {
			if !Certify(a, mt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKoenigCertificateLarge(t *testing.T) {
	a := gen.ERAvgDeg(100000, 100000, 4, 7)
	mt := HopcroftKarp(a, nil)
	if !Certify(a, mt) {
		t.Fatal("Hopcroft-Karp result failed certification on large instance")
	}
}

func TestCertifyRejectsNonMaximum(t *testing.T) {
	a := gen.FullyIndecomposable(100, 1, 3)
	// A maximal-but-not-maximum matching: greedy first fit often leaves
	// augmenting paths on this family; force one by leaving a row out.
	mt := HopcroftKarp(a, nil)
	if mt.Size != 100 {
		t.Fatal("setup: expected perfect matching")
	}
	// Remove one pair: still valid, no longer maximum.
	j := mt.RowMate[0]
	mt.RowMate[0] = NIL
	mt.ColMate[j] = NIL
	mt.Size--
	if Certify(a, mt) {
		t.Fatal("non-maximum matching certified")
	}
}

func TestCertifyRejectsCorrupt(t *testing.T) {
	a := gen.Identity(10)
	mt := HopcroftKarp(a, nil)
	bad := NewMatching(10, 10)
	copy(bad.RowMate, mt.RowMate)
	copy(bad.ColMate, mt.ColMate)
	bad.Size = mt.Size
	bad.RowMate[0] = 5 // not an edge, and inconsistent with ColMate
	if Certify(a, bad) {
		t.Fatal("corrupt matching certified")
	}
	short := NewMatching(10, 10)
	short.Size = 3 // size lies
	if Certify(a, short) {
		t.Fatal("size-lying matching certified")
	}
}

func TestCoverOnDeficientKnown(t *testing.T) {
	// 3 rows share 2 columns: max matching 2, min cover = the 2 columns.
	a := sparse.FromDense([][]int{
		{1, 1},
		{1, 1},
		{1, 1},
	})
	mt := HopcroftKarp(a, nil)
	rows, cols, size := MinVertexCover(a, mt)
	if size != 2 {
		t.Fatalf("cover size %d want 2", size)
	}
	if VerifyCover(a, rows, cols) != 0 {
		t.Fatal("cover invalid")
	}
	if !cols[0] || !cols[1] {
		t.Fatal("expected the two columns to form the cover")
	}
}

func TestCoverEmptyGraph(t *testing.T) {
	a, _ := sparse.FromCOO(4, 4, nil, false)
	mt := HopcroftKarp(a, nil)
	rows, cols, size := MinVertexCover(a, mt)
	if size != 0 || VerifyCover(a, rows, cols) != 0 {
		t.Fatal("empty graph should have empty cover")
	}
}
