// Package scale implements doubly stochastic matrix scaling. The matching
// heuristics use the scaled entries s_ij = dr[i]·a_ij·dc[j] as probability
// densities for choosing edges (paper §2.2 and Algorithm 1).
//
// Two methods are provided: the parallel Sinkhorn–Knopp iteration (ScaleSK,
// Algorithm 1 in the paper), and the Ruiz equilibration iteration reviewed
// in §2.2 for comparison. Both produce scaling vectors dr, dc rather than
// materializing the scaled matrix.
//
// The fixed-iteration-count configuration the experiments use (Tol <= 0)
// runs a fused Sinkhorn–Knopp loop that touches the matrix twice per
// iteration instead of three times: the scaling-error sweep is folded into
// the next iteration's column pass (the column sums it needs are the same
// sums the error is defined over), the initial error sweep doubles as the
// first column pass, and one deferred sweep after the loop settles the
// final error. The fused loop reports the exact same Err and History
// values, measured at the same points, as the classic
// column/row/error-sweep formulation — only the number of passes over the
// matrix changes. It also exports the per-row and per-column scaled sums
// of the final vectors (Result.RSum, Result.CSum), which are precisely the
// sampling denominators Algorithms 2 and 3 need, so sampling can skip its
// own sum pass over the matrix.
package scale

import (
	"errors"
	"math"

	"repro/internal/buf"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Options configures a scaling run.
type Options struct {
	// MaxIters bounds the number of iterations. Zero iterations leaves
	// dr = dc = 1, i.e., uniform sampling (the "0 iterations" rows of
	// Tables 1 and 2).
	MaxIters int
	// Tol stops the iteration once the scaling error (max |colsum-1|)
	// drops below it. Tol <= 0 disables the convergence check so that
	// exactly MaxIters iterations run, as the experiments require; this
	// is also the configuration that takes the fused two-sweep loop.
	Tol float64
	// Workers is the parallel width; <= 0 means the pool width.
	Workers int
	// Policy is the loop scheduling policy; the paper uses (dynamic,512).
	Policy par.Policy
	// Chunk is the scheduling chunk size; <= 0 means par.DefaultChunk.
	Chunk int
	// Pool is the worker pool the scaling sweeps are dispatched to; nil
	// means the process-wide par.Default pool. Callers that run scaling,
	// sampling and matching back to back pass one pool through all of
	// them.
	Pool *par.Pool
	// Ws, when non-nil, supplies reusable buffers for the fused
	// fixed-iteration path (Tol <= 0): the Result returned aliases the
	// workspace and is valid only until the workspace's next run. The
	// convergence-checked and Ruiz paths ignore it.
	Ws *Workspace
	// Cancel, when non-nil, is a cooperative cancellation hook polled
	// between matrix sweeps (once or twice per iteration). When it reports
	// true the run aborts with ErrCanceled; the scaling state accumulated
	// so far is discarded. The serving layer derives it from the request's
	// context deadline.
	Cancel func() bool
}

// canceled reports whether the run's cancellation hook has fired.
func (o Options) canceled() bool { return o.Cancel != nil && o.Cancel() }

// ErrCanceled reports a scaling run aborted by its Options.Cancel hook.
var ErrCanceled = errors.New("scale: canceled")

// Workspace owns the vectors of the fused fixed-iteration Sinkhorn–Knopp
// loop (scaling vectors, row/column sums, error history) so matcher
// sessions can rescale same-shaped matrices without reallocating. Buffers
// grow on demand and are reused as-is when large enough; the zero value is
// ready to use.
type Workspace struct {
	dr, dc, rsum, csum []float64
	history            []float64
	res                Result
}

// buffers sizes the workspace for an n×m run of at most iters iterations
// and returns the result header (scaling vectors reset to 1) plus the
// column- and row-sum buffers.
func (ws *Workspace) buffers(n, m, iters int) (*Result, []float64, []float64) {
	ws.dr = buf.Grow(ws.dr, n)
	ws.dc = buf.Grow(ws.dc, m)
	ws.csum = buf.Grow(ws.csum, m)
	ws.rsum = buf.Grow(ws.rsum, n)
	if cap(ws.history) < iters+2 {
		ws.history = make([]float64, 0, iters+2)
	}
	for i := range ws.dr {
		ws.dr[i] = 1
	}
	for j := range ws.dc {
		ws.dc[j] = 1
	}
	ws.res = Result{DR: ws.dr, DC: ws.dc, History: ws.history[:0]}
	return &ws.res, ws.csum, ws.rsum
}

func (o Options) pool() *par.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return par.Default()
}

func (o Options) chunkOrDefault() int {
	if o.Chunk <= 0 {
		return par.DefaultChunk
	}
	return o.Chunk
}

// Result carries the scaling vectors and convergence information.
type Result struct {
	DR, DC []float64
	// Iters is the number of iterations actually performed.
	Iters int
	// Err is the scaling error after the final iteration: the maximum
	// absolute difference between a column sum of the scaled matrix and
	// one. Before any iteration it is measured on the unscaled matrix.
	Err float64
	// History records the error measured at the start of each iteration,
	// History[0] being the unscaled error (n-1 for a matrix with a full
	// column, as noted in the paper).
	History []float64
	// RSum and CSum are the raw scaled sums of the final vectors:
	// RSum[i] = Σ_j a_ij·DC[j] and CSum[j] = Σ_i DR[i]·a_ij, zero for
	// empty rows/columns. These are bit-for-bit the row and column
	// sampling totals of Algorithms 2 and 3 (the common factor DR[i],
	// resp. DC[j], cancels inside one row, resp. column), so the
	// sampling kernels reuse them instead of re-summing the matrix.
	// They are nil when the convergence-checked (Tol > 0) path runs,
	// and RSum is nil after zero iterations.
	RSum, CSum []float64
}

// ErrShape reports mismatched matrix/transpose arguments.
var ErrShape = errors.New("scale: transpose shape mismatch")

// SinkhornKnopp runs Algorithm 1 (ScaleSK) on a, whose transpose at must be
// supplied (both orientations are needed: column sums walk columns, row
// sums walk rows). Val == nil treats entries as 1. Rows or columns with no
// entries keep their scaling factor (their sums are reported as 0 and the
// error reflects it), matching the paper's treatment of structurally
// deficient matrices where irrelevant entries drift to zero.
func SinkhornKnopp(a, at *sparse.CSR, opt Options) (*Result, error) {
	if a.RowsN != at.ColsN || a.ColsN != at.RowsN {
		return nil, ErrShape
	}
	n, m := a.RowsN, a.ColsN
	if opt.canceled() {
		return nil, ErrCanceled
	}
	if opt.Tol > 0 {
		// The convergence check needs the error of an iteration before
		// deciding whether to run the next one, which forces the classic
		// dedicated error sweep per iteration.
		res := &Result{DR: ones(n), DC: ones(m)}
		if err := sinkhornKnoppTol(a, at, opt, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	p := opt.pool()
	chunk := opt.chunkOrDefault()
	var res *Result
	var csum, rsum []float64
	if opt.Ws != nil {
		res, csum, rsum = opt.Ws.buffers(n, m, opt.MaxIters)
	} else {
		res = &Result{DR: ones(n), DC: ones(m)}
		csum = make([]float64, m)
		if opt.MaxIters > 0 {
			rsum = make([]float64, n)
		}
	}

	// The initial error sweep already computes Σ_i dr[i]·a_ij for every
	// column — the exact sums the first column pass needs — so the first
	// column pass degenerates to inverting them.
	res.Err = colSumsAndError(at, res.DR, res.DC, csum, false, p, opt.Workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	if opt.MaxIters <= 0 {
		res.CSum = csum
		return res, nil
	}

	// Row pass: dr[i] <- 1 / Σ_{j in Ai*} a_ij*dc[j]. The last iteration
	// keeps the raw sums: they are the row sampling totals.
	rowPass := func(rsumOut []float64) {
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s, e := a.Ptr[i], a.Ptr[i+1]
				sum := 0.0
				if a.Val == nil {
					for q := s; q < e; q++ {
						sum += res.DC[a.Idx[q]]
					}
				} else {
					for q := s; q < e; q++ {
						sum += res.DC[a.Idx[q]] * a.Val[q]
					}
				}
				if rsumOut != nil {
					rsumOut[i] = sum
				}
				if sum > 0 {
					res.DR[i] = 1.0 / sum
				}
			}
		})
	}
	rsumIfLast := func(it int) []float64 {
		if it == opt.MaxIters-1 {
			return rsum
		}
		return nil
	}
	// Iteration 0: the column pass reuses the sums of the initial sweep,
	// so it degenerates to inverting them: dc[j] <- 1/csum[j].
	p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			if csum[j] > 0 {
				res.DC[j] = 1.0 / csum[j]
			}
		}
	})
	rowPass(rsumIfLast(0))
	res.Iters++
	for it := 1; it < opt.MaxIters; it++ {
		if opt.canceled() {
			return nil, ErrCanceled
		}
		// Fused column pass: the fresh column sums determine both the
		// error of the state entering this iteration (the previous
		// iteration's result, measured against the not-yet-updated dc)
		// and the new dc.
		err := colSumsAndError(at, res.DR, res.DC, nil, true, p, opt.Workers, opt.Policy, chunk)
		res.History = append(res.History, err)
		rowPass(rsumIfLast(it))
		res.Iters++
	}
	// Deferred final sweep: the error of the last iteration, and the
	// column sampling totals of the final vectors.
	res.Err = colSumsAndError(at, res.DR, res.DC, csum, false, p, opt.Workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	res.RSum = rsum
	res.CSum = csum
	return res, nil
}

// sinkhornKnoppTol is the classic three-sweep loop used when a convergence
// tolerance is set. It reports the same Err/History as the fused loop for
// the iterations it runs, but leaves RSum/CSum nil.
func sinkhornKnoppTol(a, at *sparse.CSR, opt Options, res *Result) error {
	p := opt.pool()
	chunk := opt.chunkOrDefault()
	n, m := a.RowsN, a.ColsN

	res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	for it := 0; it < opt.MaxIters; it++ {
		if res.Err <= opt.Tol {
			break
		}
		if opt.canceled() {
			return ErrCanceled
		}
		// Column pass: dc[j] <- 1 / sum_{i in A*j} dr[i]*a_ij.
		p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				csum := 0.0
				s, e := at.Ptr[j], at.Ptr[j+1]
				if at.Val == nil {
					for q := s; q < e; q++ {
						csum += res.DR[at.Idx[q]]
					}
				} else {
					for q := s; q < e; q++ {
						csum += res.DR[at.Idx[q]] * at.Val[q]
					}
				}
				if csum > 0 {
					res.DC[j] = 1.0 / csum
				}
			}
		})
		// Row pass: dr[i] <- 1 / sum_{j in Ai*} a_ij*dc[j].
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				rsum := 0.0
				s, e := a.Ptr[i], a.Ptr[i+1]
				if a.Val == nil {
					for q := s; q < e; q++ {
						rsum += res.DC[a.Idx[q]]
					}
				} else {
					for q := s; q < e; q++ {
						rsum += res.DC[a.Idx[q]] * a.Val[q]
					}
				}
				if rsum > 0 {
					res.DR[i] = 1.0 / rsum
				}
			}
		})
		res.Iters++
		res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
		res.History = append(res.History, res.Err)
	}
	return nil
}

// Ruiz runs the Ruiz equilibration iteration: every step scales rows and
// columns simultaneously by the inverse square roots of their current sums.
// It converges to the same doubly stochastic limit but, as Knight, Ruiz and
// Uçar observed, more slowly than Sinkhorn–Knopp on unsymmetric matrices —
// the ablation benchmark demonstrates exactly that.
func Ruiz(a, at *sparse.CSR, opt Options) (*Result, error) {
	if a.RowsN != at.ColsN || a.ColsN != at.RowsN {
		return nil, ErrShape
	}
	p := opt.pool()
	chunk := opt.chunkOrDefault()
	n, m := a.RowsN, a.ColsN
	res := &Result{DR: ones(n), DC: ones(m)}
	rsum := make([]float64, n)
	csum := make([]float64, m)

	res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
	res.History = append(res.History, res.Err)
	for it := 0; it < opt.MaxIters; it++ {
		if opt.Tol > 0 && res.Err <= opt.Tol {
			break
		}
		if opt.canceled() {
			return nil, ErrCanceled
		}
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for q := a.Ptr[i]; q < a.Ptr[i+1]; q++ {
					v := 1.0
					if a.Val != nil {
						v = a.Val[q]
					}
					s += res.DR[i] * v * res.DC[a.Idx[q]]
				}
				rsum[i] = s
			}
		})
		p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				s := 0.0
				for q := at.Ptr[j]; q < at.Ptr[j+1]; q++ {
					v := 1.0
					if at.Val != nil {
						v = at.Val[q]
					}
					s += res.DR[at.Idx[q]] * v * res.DC[j]
				}
				csum[j] = s
			}
		})
		p.For(n, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if rsum[i] > 0 {
					res.DR[i] /= math.Sqrt(rsum[i])
				}
			}
		})
		p.For(m, opt.Workers, opt.Policy, chunk, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				if csum[j] > 0 {
					res.DC[j] /= math.Sqrt(csum[j])
				}
			}
		})
		res.Iters++
		res.Err = colSumsAndError(at, res.DR, res.DC, nil, false, p, opt.Workers, opt.Policy, chunk)
		res.History = append(res.History, res.Err)
	}
	return res, nil
}

// ColError computes the scaling error of (dr, dc) on the matrix with
// transpose at: max over columns of |sum_i dr[i]*a_ij*dc[j] - 1|. This is
// the quantity reported in Tables 1 and 3.
func ColError(at *sparse.CSR, dr, dc []float64, workers int) float64 {
	return colSumsAndError(at, dr, dc, nil, false, par.Default(), workers, par.Dynamic, par.DefaultChunk)
}

// RowError is the row-side counterpart of ColError (max |rowsum-1|),
// computed on the matrix itself.
func RowError(a *sparse.CSR, dr, dc []float64, workers int) float64 {
	return colSumsAndError(a, dc, dr, nil, false, par.Default(), workers, par.Dynamic, par.DefaultChunk)
}

// colSumsAndError walks the columns once and returns
// max_j |sum_j·dc[j] - 1| — the scaling error, measured against the dc the
// columns enter the sweep with. Two optional outputs ride along on the
// same pass: sums, when non-nil, receives the raw weighted column sums
// Σ_i dr[i]·a_ij (the sampling totals / next-pass inputs), and invert
// additionally updates dc[j] to the inverted fresh sum — which turns the
// sweep into one fused column pass of the fixed-iteration loop (the error
// it reports is exactly the scaling error of the previous iteration's
// result, because it is measured before dc is touched). One kernel thus
// serves the error measurement, the totals export and the fused column
// pass; the bit-identity between the fused and classic paths holds because
// every caller accumulates through this single body, and
// TestFusedMatchesClassicReference fails if the order ever drifts.
func colSumsAndError(at *sparse.CSR, dr, dc []float64, sums []float64, invert bool,
	p *par.Pool, workers int, policy par.Policy, chunk int) float64 {
	m := at.RowsN
	return p.ReduceFloat64(m, workers, policy, chunk, 0,
		func(_, lo, hi int, acc float64) float64 {
			for j := lo; j < hi; j++ {
				csum := 0.0
				s, e := at.Ptr[j], at.Ptr[j+1]
				if at.Val == nil {
					for q := s; q < e; q++ {
						csum += dr[at.Idx[q]]
					}
				} else {
					for q := s; q < e; q++ {
						csum += dr[at.Idx[q]] * at.Val[q]
					}
				}
				if sums != nil {
					sums[j] = csum
				}
				if d := math.Abs(csum*dc[j] - 1.0); d > acc {
					acc = d
				}
				if invert && csum > 0 {
					dc[j] = 1.0 / csum
				}
			}
			return acc
		}, math.Max)
}

// Entry returns the scaled entry dr[i]*v*dc[j] for the p-th stored entry of
// row i. It is a convenience for tests and debugging.
func Entry(a *sparse.CSR, dr, dc []float64, i, p int) float64 {
	v := 1.0
	if a.Val != nil {
		v = a.Val[p]
	}
	return dr[i] * v * dc[a.Idx[p]]
}

func ones(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}
