package exact

import "repro/internal/sparse"

// PRRefiner is the incremental form of the push-relabel / auction scheme
// with global relabeling used by the GPU and multicore maximum-transversal
// codes the paper cites (Kaya–Langguth–Manne–Uçar 2013; Deveci et al.
// 2013): each free row bids for its cheapest (lowest-label) neighbor
// column, evicting the column's mate, and the column's label rises to one
// above the row's second-cheapest alternative; a row whose cheapest label
// reaches the cap has no augmenting path left and stays free. The refiner
// holds the matching, the column labels and a queue of active rows,
// advanced a bounded number of bids at a time. The held matching is valid
// between steps and its size is monotone (a bid either evicts — size
// unchanged — or claims a free column), so callers can interleave bounded
// Step calls with other work and stop as soon as the size crosses a
// bound, exactly like HKRefiner.
//
// The first Step is one Pothen–Fan+ pass: every free row roots an
// augmenting DFS with a per-row lookahead cursor, and columns are visited
// at most once per sweep, so the pass costs one traversal of the graph and
// finds a maximal set of vertex-disjoint augmenting paths. Push-relabel
// then only has to finish the rows the sweep left free.
//
// A column's label is a lower bound on its alternating distance to a free
// column. Bids keep the bound valid but raise it one step at a time, which
// is quadratic on structurally deficient inputs, where whole regions can
// never reach a free column. The global relabel replaces every label by
// the exact distance — a BFS from the free columns over the transpose —
// and caps the unreachable ones at once. Labels start stale, so the first
// bid relabels; later relabels run every (n+m)/4 bids. An evicted row
// queues at the back (FIFO), the order that keeps the relabelled bid count
// linear in practice.
type PRRefiner struct {
	a, at  *sparse.CSR
	mt     *Matching
	cancel func() bool

	// Label cap: an augmenting path visits each matched column at most
	// once, so every finite distance is below min(n,m)+1. Labels at or
	// above the cap mean "unreachable".
	limit int32
	psi   []int32
	bfs   []int32 // global-relabel column queue

	// Active rows: a ring of capacity n. A row is queued only while free,
	// and at most once.
	queue       []int32
	head, count int

	bids, every, since int // since ≥ every: the labels are due a relabel

	// Pothen–Fan+ state: whether the sweep is still to run, then the
	// buffers the sweep sets up itself — the per-row lookahead and DFS
	// cursors, the per-sweep visited columns and the DFS path.
	sweep     bool
	look, arc []int
	visit     []bool
	rows      []int32
	cols      []int32
}

// sweepChunk is how many sweep roots run between cancellation polls.
const sweepChunk = 256

// NewPRRefiner prepares an incremental sweep + push-relabel run on a,
// warm-started from init (nil means the empty matching; init is copied,
// not mutated, and not retained). The transpose the global relabel walks
// is built at the first relabel; callers that hold one use NewPRRefinerWs.
func NewPRRefiner(a *sparse.CSR, init *Matching) *PRRefiner {
	return NewPRRefinerWs(a, nil, init, &Workspace{})
}

// SetCancel installs a cooperative cancellation hook, polled once per Step
// and between chunks of sweep roots. After a cancel the held matching is
// still valid (possibly not maximum) but Step makes no further progress;
// callers discard the run, as with every canceled kernel.
func (r *PRRefiner) SetCancel(cancel func() bool) { r.cancel = cancel }

func (r *PRRefiner) stop() bool { return r.cancel != nil && r.cancel() }

// Matching returns the refiner's current matching. It is owned by the
// refiner until Step can no longer improve it; callers that mutate it must
// not call Step again.
func (r *PRRefiner) Matching() *Matching { return r.mt }

// Size returns the current matching cardinality.
func (r *PRRefiner) Size() int { return r.mt.Size }

// Bids returns the number of active rows processed so far (sweep work is
// not counted).
func (r *PRRefiner) Bids() int { return r.bids }

// Done reports whether the matching is provably maximum (no active row
// remains: every free row's neighbors are all label-capped).
func (r *PRRefiner) Done() bool { return r.count == 0 }

// Step processes up to budget active rows — each leaves the queue, bids for
// its cheapest neighbor column and raises that column's label — and reports
// whether active rows remain. The first Step runs the whole Pothen–Fan+
// sweep instead, regardless of budget. A false return means the matching
// is maximum; the refiner stays in that state.
func (r *PRRefiner) Step(budget int) bool {
	if r.count == 0 || r.stop() {
		return r.count > 0
	}
	if r.sweep {
		r.sweep = false
		r.runSweep()
		return r.count > 0
	}
	a, mt := r.a, r.mt
	for ; budget > 0 && r.count > 0; budget-- {
		if r.since >= r.every {
			r.relabel()
		}
		row := r.queue[r.head]
		r.head = r.slot(1)
		r.count--
		r.bids++
		r.since++
		// Find the cheapest and second-cheapest neighbor labels.
		var c1 int32 = -1
		min1, min2 := r.limit, r.limit
		for p := a.Ptr[row]; p < a.Ptr[row+1]; p++ {
			c := a.Idx[p]
			if l := r.psi[c]; l < min1 {
				min2 = min1
				min1 = l
				c1 = c
			} else if l < min2 {
				min2 = l
			}
		}
		if min1 >= r.limit {
			continue // row cannot be matched in any maximum matching
		}
		// Evict the current mate (it becomes active again) and take c1.
		if prev := mt.ColMate[c1]; prev != NIL {
			mt.RowMate[prev] = NIL
			r.push(prev)
		} else {
			mt.Size++
		}
		mt.RowMate[row] = c1
		mt.ColMate[c1] = row
		// Auction price update: one above the second-best alternative.
		r.psi[c1] = min2 + 1
	}
	return r.count > 0
}

// slot returns the queue index k places behind the head.
func (r *PRRefiner) slot(k int) int {
	if k += r.head; k >= len(r.queue) {
		k -= len(r.queue)
	}
	return k
}

func (r *PRRefiner) push(row int32) {
	r.queue[r.slot(r.count)] = row
	r.count++
}

// relabel sets every column label to its exact alternating distance to a
// free column — a BFS from the free columns that steps from a column to
// each neighbor row's mate — and caps the columns it never reaches.
func (r *PRRefiner) relabel() {
	if r.at == nil {
		r.at = r.a.Transpose()
	}
	psi, mt, at, limit := r.psi, r.mt, r.at, r.limit
	q := r.bfs[:0]
	for j, i := range mt.ColMate {
		if i == NIL {
			psi[j] = 0
			q = append(q, int32(j))
		} else {
			psi[j] = limit
		}
	}
	for h := 0; h < len(q); h++ {
		j := q[h]
		d := psi[j] + 1
		for p := at.Ptr[j]; p < at.Ptr[j+1]; p++ {
			if j2 := mt.RowMate[at.Idx[p]]; j2 != NIL && psi[j2] == limit {
				psi[j2] = d
				q = append(q, j2)
			}
		}
	}
	r.bfs = q
	r.since = 0
}

// runSweep is the Pothen–Fan+ pass over the queued (free) rows: each roots
// a DFS that first tries the row's lookahead cursor for a free column and
// otherwise descends through a column not yet visited this sweep to its
// mate. Rows it matches leave the queue; the rest, including the roots a
// cancellation skipped, stay in order.
func (r *PRRefiner) runSweep() {
	n, m := r.a.RowsN, r.a.ColsN
	r.look = growInt(r.look, n)
	copy(r.look, r.a.Ptr[:n])
	r.arc = growInt(r.arc, n)
	if cap(r.visit) < m {
		r.visit = make([]bool, m)
	}
	r.visit = r.visit[:m]
	clear(r.visit)
	kept, stopped := 0, false
	for k := 0; k < r.count; k++ {
		s := r.queue[r.slot(k)]
		if !stopped && k > 0 && k%sweepChunk == 0 {
			stopped = r.stop()
		}
		if !stopped && r.augmentFrom(s) {
			continue
		}
		r.queue[r.slot(kept)] = s
		kept++
	}
	r.count = kept
}

// augmentFrom searches for an augmenting path from the free row s and, if
// it finds one, flips the matching along it.
func (r *PRRefiner) augmentFrom(s int32) bool {
	a, mt := r.a, r.mt
	look, arc, visit := r.look, r.arc, r.visit
	rows := append(r.rows[:0], s)
	cols := r.cols[:0]
	arc[s] = a.Ptr[s]
	found := false
	for len(rows) > 0 && !found {
		i := rows[len(rows)-1]
		// Lookahead: a free column ends the path at once. Columns never
		// become free again, so the cursor never needs to rewind.
		for p := look[i]; p < a.Ptr[i+1]; p++ {
			if j := a.Idx[p]; mt.ColMate[j] == NIL {
				look[i] = p + 1
				cols = append(cols, j)
				found = true
				break
			}
		}
		if found {
			break
		}
		look[i] = a.Ptr[i+1]
		// Descend through a matched column not yet seen this sweep.
		advanced := false
		for arc[i] < a.Ptr[i+1] {
			j := a.Idx[arc[i]]
			arc[i]++
			if visit[j] {
				continue
			}
			visit[j] = true
			i2 := mt.ColMate[j]
			cols = append(cols, j)
			rows = append(rows, i2)
			arc[i2] = a.Ptr[i2]
			advanced = true
			break
		}
		if !advanced {
			rows = rows[:len(rows)-1]
			if len(cols) > 0 {
				cols = cols[:len(cols)-1]
			}
		}
	}
	if found {
		for k, i := range rows {
			j := cols[k]
			mt.RowMate[i] = j
			mt.ColMate[j] = i
		}
		mt.Size++
	}
	r.rows, r.cols = rows, cols
	return found
}

// Run advances the refiner to the maximum matching (or until canceled)
// and returns it.
func (r *PRRefiner) Run() *Matching {
	budget := r.a.RowsN
	if budget < 1 {
		budget = 1
	}
	for r.Step(budget) && !r.stop() {
	}
	return r.mt
}
