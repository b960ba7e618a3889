package exact

import "repro/internal/sparse"

// Workspace holds the reusable state of the incremental refiners — the
// refiner structs themselves plus the backing store of the matching they
// hold — so a caller that refines repeatedly (a Matcher session, the
// ensemble engine) constructs refiners allocation-free once the buffers
// have grown to the graph's shape.
//
// One refiner is live per workspace at a time: constructing a new refiner
// on the workspace invalidates the previous one and the matching it held.
type Workspace struct {
	hk    HKRefiner
	pr    PRRefiner
	graft GraftRefiner
	mt    Matching
}

// matching resets the workspace-backed matching to a copy of init (nil
// means empty) at shape n×m and returns it.
func (ws *Workspace) matching(n, m int, init *Matching) *Matching {
	mt := &ws.mt
	mt.RowMate = growInt32(mt.RowMate, n)
	mt.ColMate = growInt32(mt.ColMate, m)
	if init != nil {
		copy(mt.RowMate, init.RowMate)
		copy(mt.ColMate, init.ColMate)
		mt.Size = init.Size
		return mt
	}
	for i := range mt.RowMate {
		mt.RowMate[i] = NIL
	}
	for j := range mt.ColMate {
		mt.ColMate[j] = NIL
	}
	mt.Size = 0
	return mt
}

// NewHKRefinerWs is NewHKRefiner on a reusable Workspace: the search
// arrays and the held matching live in ws, so repeated constructions on
// same-shaped graphs allocate nothing. The returned refiner (and its
// Matching) are valid until the workspace's next construction.
func NewHKRefinerWs(a *sparse.CSR, init *Matching, ws *Workspace) *HKRefiner {
	n := a.RowsN
	r := &ws.hk
	r.a = a
	r.mt = ws.matching(n, a.ColsN, init)
	r.dist = growInt32(r.dist, n)
	r.queue = r.queue[:0]
	r.arc = growInt(r.arc, n)
	r.stack = r.stack[:0]
	r.done = false
	return r
}

// NewPRRefinerWs is NewPRRefiner on a reusable Workspace, with the same
// reuse contract as NewHKRefinerWs. at is a's transpose, which the global
// relabel walks; it is only read, and nil builds it at the first relabel.
func NewPRRefinerWs(a, at *sparse.CSR, init *Matching, ws *Workspace) *PRRefiner {
	n, m := a.RowsN, a.ColsN
	r := &ws.pr
	r.a, r.at, r.cancel = a, at, nil
	r.mt = ws.matching(n, m, init)
	r.limit = int32(min(n, m) + 1)
	r.psi = growInt32(r.psi, m)
	r.queue = growInt32(r.queue, n)
	r.head, r.count = 0, 0
	for i := 0; i < n; i++ {
		if r.mt.RowMate[i] == NIL && a.Degree(i) > 0 {
			r.queue[r.count] = int32(i)
			r.count++
		}
	}
	r.every = max((n+m)/4, 1)
	// The labels start stale, so the first bid (after the sweep) relabels.
	r.bids, r.since, r.sweep = 0, r.every, true
	return r
}

// growInt32 returns s resized to n, reallocating only on capacity growth.
// Contents are unspecified; callers initialize what they read.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
