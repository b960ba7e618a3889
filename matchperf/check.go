package main

import (
	"fmt"
	"sort"
)

// adjacency answers edge-membership queries for the output checks.
type adjacency interface {
	hasEdge(i, j int) bool
}

// csrAdj is a row-sorted CSR pattern, the shape every generated input has.
type csrAdj struct {
	rows, cols int
	ptr        []int
	idx        []int32
}

func (a csrAdj) hasEdge(i, j int) bool {
	row := a.idx[a.ptr[i]:a.ptr[i+1]]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// checkRowMate verifies a wire-level matching: rowMate has one entry per
// row, every matched row names an in-range column that no other row uses
// and that is an edge of adj, and the matched count equals both the
// reported size and, when want ≥ 0, the expected size.
func checkRowMate(adj adjacency, rows, cols int, rowMate []int32, size, want int) error {
	if len(rowMate) != rows {
		return fmt.Errorf("row_mate has %d entries for %d rows", len(rowMate), rows)
	}
	used := make([]bool, cols)
	n := 0
	for i, j := range rowMate {
		if j < 0 {
			continue
		}
		if int(j) >= cols {
			return fmt.Errorf("row %d matched to out-of-range column %d", i, j)
		}
		if used[j] {
			return fmt.Errorf("column %d matched twice", j)
		}
		used[j] = true
		if !adj.hasEdge(i, int(j)) {
			return fmt.Errorf("matched pair (%d,%d) is not an edge", i, j)
		}
		n++
	}
	if n != size {
		return fmt.Errorf("reported size %d but %d rows matched", size, n)
	}
	if want >= 0 && n != want {
		return fmt.Errorf("size %d, want %d", n, want)
	}
	return nil
}
