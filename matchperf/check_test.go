package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// 3×3 pattern: row 0 ~ {0,1}, row 1 ~ {1}, row 2 ~ {0,2}.
var tiny = csrAdj{rows: 3, cols: 3, ptr: []int{0, 2, 3, 5}, idx: []int32{0, 1, 1, 0, 2}}

func TestCheckRowMate(t *testing.T) {
	for _, c := range []struct {
		name       string
		mate       []int32
		size, want int
		err        string // substring; empty means valid
	}{
		{"valid maximum", []int32{0, 1, 2}, 3, 3, ""},
		{"valid partial, size unchecked", []int32{-1, 1, 2}, 2, -1, ""},
		{"duplicate column", []int32{1, 1, 2}, 3, -1, "matched twice"},
		{"non-edge mate", []int32{0, -1, 1}, 2, -1, "not an edge"},
		{"reported size disagrees", []int32{0, 1, -1}, 3, -1, "reported size"},
		{"wrong size against reference", []int32{0, 1, -1}, 2, 3, "want 3"},
		{"out-of-range column", []int32{0, 1, 3}, 3, -1, "out-of-range"},
		{"short row_mate", []int32{0, 1}, 2, -1, "entries"},
	} {
		err := checkRowMate(tiny, 3, 3, c.mate, c.size, c.want)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.err)
		}
	}
}

// A served read is checked against the base edges plus every edge a PATCH
// ever tried to insert.
func TestSgraphAcceptsInsertedEdges(t *testing.T) {
	g := &sgraph{base: tiny, ever: map[[2]int32]bool{{1, 2}: true}}
	if err := checkRowMate(g, 3, 3, []int32{0, 2, -1}, 2, -1); err != nil {
		t.Errorf("read using an inserted edge rejected: %v", err)
	}
	if err := checkRowMate(g, 3, 3, []int32{1, 0, -1}, 2, -1); err == nil {
		t.Error("read using an edge never inserted accepted")
	}
}

// BENCHMARK.json and the metrics the program prints must name the same
// metrics with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eMetrics)
	compare("per_layer", spec.PerLayer, layerMetrics())
}
