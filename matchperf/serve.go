package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	bipartite "repro"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// reqKind is one entry of a serving workload's request mix.
type reqKind int

const (
	kTwoSided reqKind = iota
	kOneSided
	kBestOf // best_of 8: the router fans it out across the replicas
	kRefine // refine exact
	kAuction
	kPatch // PATCH /graph/{id} edge batch
	nKinds
)

// nReads is the number of read kinds; they precede kPatch.
const nReads = int(kPatch)

var kindNames = [nKinds]string{"twosided", "onesided", "best_of8", "refine", "auction", "patch"}

// requestSeeds is how many distinct Spec seeds reads draw from; serve
// precomputes the expected size of every (graph, kind, seed).
const requestSeeds = 4

// serveWorkload fixes everything a serving workload varies.
type serveWorkload struct {
	name    string
	graphs  func(seed uint64) []*sgraph
	mix     [nKinds]int   // relative request weights
	rate    float64       // open-loop arrivals per second
	limit   time.Duration // latency limit of slo_frac
	open    float64       // share of --seconds spent in the open-loop phase; the closed loop gets the rest
	exact   bool          // reads of static graphs: check sizes against references
	inserts int           // edges inserted per PATCH
	deletes int           // edges deleted per PATCH
}

var serveSpec = serveWorkload{
	name:   "serve",
	graphs: serveGraphs,
	mix:    [nKinds]int{kTwoSided: 60, kOneSided: 15, kBestOf: 10, kRefine: 10, kAuction: 5},
	rate:   100,
	limit:  100 * time.Millisecond,
	open:   0.25,
	exact:  true,
}

var mutateSpec = serveWorkload{
	name:    "serve-mutate",
	graphs:  mutateGraphs,
	mix:     [nKinds]int{kTwoSided: 48, kOneSided: 12, kBestOf: 8, kRefine: 8, kAuction: 4, kPatch: 20},
	rate:    18,
	limit:   500 * time.Millisecond,
	open:    0.25,
	inserts: 8,
	deletes: 2,
}

func runServe(cfg runCfg, out io.Writer, rep *report) error {
	return runServing(serveSpec, cfg, out, rep)
}

func runServeMutate(cfg runCfg, out io.Writer, rep *report) error {
	return runServing(mutateSpec, cfg, out, rep)
}

// sgraph is one registered graph and the benchmark's own view of it.
type sgraph struct {
	id      string
	base    csrAdj
	val     []float64
	sprank  int
	want    [nReads][requestSeeds]int // expected sizes (serve)
	patched atomic.Bool               // set by each applied PATCH, cleared by the next read

	mu       sync.Mutex
	ever     map[[2]int32]bool // every edge any PATCH tried to insert
	inserted map[[2]int32]bool // inserts of applied PATCHes
	deleted  map[[2]int32]bool // deletes of applied PATCHes
}

func (g *sgraph) nnz() int { return len(g.base.idx) }

// hasEdge accepts base edges and any edge a PATCH ever tried to insert: a
// read may see any snapshot, including ones with since-deleted edges.
func (g *sgraph) hasEdge(i, j int) bool {
	if g.base.hasEdge(i, j) {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ever[[2]int32{int32(i), int32(j)}]
}

func newSgraph(id string, a *sparse.CSR) *sgraph {
	return &sgraph{id: id, base: csrAdj{rows: a.RowsN, cols: a.ColsN, ptr: a.Ptr, idx: a.Idx}, val: a.Val,
		ever: map[[2]int32]bool{}, inserted: map[[2]int32]bool{}, deleted: map[[2]int32]bool{}}
}

// serveGraphs are 32 small graphs (2k–6k rows) over four families; every
// fourth is weighted, half of those with skewed weights. Sizes are fixed,
// the seed draws the edges.
func serveGraphs(seed uint64) []*sgraph {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	var gs []*sgraph
	for k := 0; k < 32; k++ {
		n := 2000 + 125*k
		s := mix(seed, uint64(1000+k))
		var a *sparse.CSR
		switch k % 4 {
		case 0:
			a = gen.ERAvgDeg(n, n, 3+2*rng.Float64(), s)
			dist := bipartite.WeightUniform
			if k%8 == 4 {
				dist = bipartite.WeightSkewed
			}
			a = withWeights(a, dist, s+1)
		case 1:
			a = gen.RoadLike(n, 2.5, s)
		case 2:
			a = gen.PowerLaw(n, 3, 2.0, n/10, s)
		case 3:
			a = gen.RankDeficient(n, n/10, 3, s)
		}
		gs = append(gs, newSgraph(fmt.Sprintf("s%d", k), a))
	}
	return gs
}

// mutateGraphs are 8 medium graphs (10k–28k rows) over the same four
// families; the two ER graphs carry uniform weights and take the auction
// reads, the six pattern graphs take the PATCH batches. Sizes are fixed,
// the seed draws the edges.
func mutateGraphs(seed uint64) []*sgraph {
	var gs []*sgraph
	for k := 0; k < 8; k++ {
		n := 10000 + 2500*k
		s := mix(seed, uint64(2000+k))
		var a *sparse.CSR
		switch k % 4 {
		case 0:
			a = withWeights(gen.ERAvgDeg(n, n, 4, s), bipartite.WeightUniform, s+1)
		case 1:
			a = gen.RoadLike(n, 2.5, s)
		case 2:
			a = gen.PowerLaw(n, 3, 2.0, n/10, s)
		case 3:
			a = gen.RankDeficient(n, n/10, 3, s)
		}
		gs = append(gs, newSgraph(fmt.Sprintf("m%d", k), a))
	}
	return gs
}

// servingRun is one set-up serving workload: inputs, fleet and client.
type servingRun struct {
	w      serveWorkload
	cfg    runCfg
	graphs []*sgraph
	wgt    []int // indices of weighted graphs: the only ones auction reads go to
	pat    []int // indices of pattern graphs: the only ones PATCHes go to
	f      *fleet
	lc     *loadClient
	rep    *report
}

func (s *servingRun) close() {
	if s.lc != nil {
		s.lc.close()
	}
	if s.f != nil {
		s.f.close()
	}
}

// setupServing generates the graphs, computes their references, boots the
// fleet, registers the graphs through the router and warms every graph
// with each read kind.
func setupServing(w serveWorkload, cfg runCfg, tr *tracer, rep *report) (*servingRun, error) {
	s := &servingRun{w: w, cfg: cfg, graphs: w.graphs(cfg.seed), rep: rep}
	for k, g := range s.graphs {
		if g.val != nil {
			s.wgt = append(s.wgt, k)
		} else {
			s.pat = append(s.pat, k)
		}
		a := &sparse.CSR{RowsN: g.base.rows, ColsN: g.base.cols, Ptr: g.base.ptr, Idx: g.base.idx, Val: g.val}
		g.sprank = exact.HopcroftKarp(a, nil).Size
		if w.exact {
			if err := g.references(); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if s.f, err = startFleet(tr); err != nil {
		return nil, err
	}
	s.lc = newLoadClient(cfg.nproc)
	for _, g := range s.graphs {
		body := map[string]any{"id": g.id, "rows": g.base.rows, "cols": g.base.cols, "edges": edgeList(g.base)}
		if g.val != nil {
			body["weights"] = g.val
		}
		if _, err := s.call(http.MethodPost, "/graph", body, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", g.id, err)
		}
	}
	for k := range s.graphs {
		for kind := reqKind(0); kind < reqKind(nReads); kind++ {
			if kind == kAuction && s.graphs[k].val == nil {
				continue
			}
			if err := s.read(request{kind: kind, graph: k, seed: 1}, nil); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	// Then a short closed loop of the workload's own mix, so connection
	// pools, the router's hedge-delay histogram and the heap are at their
	// working sizes before anything is timed.
	for _, x := range closedLoop(warmUp, cfg.nproc, s.do(warmUpPhase, nil)) {
		if x.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", x.err)
		}
	}
	return s, nil
}

// warmUp is the closed-loop warm-up at the end of a serving set-up; its
// requests come from their own phase number.
const (
	warmUp      = time.Second
	warmUpPhase = 100
)

// references computes the expected size of every read at the replicas'
// Options with Matcher.Run, the engine the replicas run.
func (g *sgraph) references() error {
	var gr *bipartite.Graph
	var err error
	if g.val != nil {
		gr, err = bipartite.NewWeightedGraph(g.base.rows, g.base.cols, g.base.ptr, g.base.idx, g.val)
	} else {
		gr, err = bipartite.NewGraph(g.base.rows, g.base.cols, g.base.ptr, g.base.idx)
	}
	if err != nil {
		return err
	}
	m := gr.NewMatcher(&bipartite.Options{ScalingIterations: 5, Workers: 1})
	for kind := reqKind(0); kind < reqKind(nReads); kind++ {
		if kind == kAuction && g.val == nil {
			continue
		}
		for s := 0; s < requestSeeds; s++ {
			res, err := m.Run(readSpec(kind, uint64(s+1)))
			if err != nil {
				return fmt.Errorf("%s %s reference: %w", g.id, kindNames[kind], err)
			}
			g.want[kind][s] = res.Matching.Size
		}
	}
	return nil
}

func readSpec(kind reqKind, seed uint64) bipartite.Spec {
	switch kind {
	case kOneSided:
		return bipartite.Spec{Algorithm: bipartite.AlgOneSided, Seed: seed}
	case kBestOf:
		return bipartite.Spec{Seed: seed, Ensemble: 8}
	case kRefine:
		return bipartite.Spec{Seed: seed, Refine: bipartite.RefineExact}
	case kAuction:
		return bipartite.Spec{Algorithm: bipartite.AlgAuction, Seed: seed}
	}
	return bipartite.Spec{Seed: seed}
}

func edgeList(a csrAdj) [][2]int {
	edges := make([][2]int, 0, len(a.idx))
	for i := 0; i < a.rows; i++ {
		for p := a.ptr[i]; p < a.ptr[i+1]; p++ {
			edges = append(edges, [2]int{i, int(a.idx[p])})
		}
	}
	return edges
}

// request is one generated operation.
type request struct {
	kind  reqKind
	graph int
	seed  uint64
	ins   [][2]int
	del   [][2]int
}

// request k of a phase, a pure function of (workload seed, phase, k).
// Kinds are dealt in blocks that each hold the mix's exact proportions in
// a seeded order, so every run sends the same mix; graphs, Spec seeds and
// PATCH edges are drawn per request.
func (s *servingRun) request(phase, k int) request {
	var slots []reqKind
	for kind, w := range s.w.mix {
		for range w {
			slots = append(slots, reqKind(kind))
		}
	}
	block := rand.New(rand.NewPCG(mix(s.cfg.seed, uint64(phase)), uint64(k/len(slots))<<32))
	kind := slots[block.Perm(len(slots))[k%len(slots)]]
	rng := rand.New(rand.NewPCG(mix(s.cfg.seed, uint64(phase)), uint64(k)))
	r := request{kind: kind, graph: rng.IntN(len(s.graphs)), seed: uint64(1 + rng.IntN(requestSeeds))}
	if kind == kAuction {
		r.graph = s.wgt[rng.IntN(len(s.wgt))]
	}
	if kind == kPatch {
		r.graph = s.pat[rng.IntN(len(s.pat))]
		g := s.graphs[r.graph]
		for len(r.ins) < s.w.inserts {
			i, j := rng.IntN(g.base.rows), rng.IntN(g.base.cols)
			if !g.base.hasEdge(i, j) {
				r.ins = append(r.ins, [2]int{i, j})
			}
		}
		for len(r.del) < s.w.deletes {
			i := rng.IntN(g.base.rows)
			if lo, hi := g.base.ptr[i], g.base.ptr[i+1]; hi > lo {
				r.del = append(r.del, [2]int{i, int(g.base.idx[lo+rng.IntN(hi-lo)])})
			}
		}
	}
	return r
}

// call sends one JSON request to the router and decodes the answer.
func (s *servingRun) call(method, path string, body any, into any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, s.f.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.lc.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, err
		}
	}
	// Drain the rest so the connection goes back to the pool.
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// readAnswer is the part of a /match answer the checks and metrics use.
type readAnswer struct {
	Size    int     `json:"size"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	RowMate []int32 `json:"row_mate"`
	Ms      float64 `json:"ms"`
}

// readLog receives what each answered read reports, for the metrics.
type readLog struct {
	mu         sync.Mutex
	quality    []float64
	afterWrite []float64 // service ms of first reads after a PATCH of their graph
	warm       []float64 // service ms of the other reads
	augments   []float64
	rescaled   []float64
}

// read sends one /match request and checks the answer: a valid matching
// of the graph and, on static graphs, the reference size.
func (s *servingRun) read(r request, log *readLog) error {
	g := s.graphs[r.graph]
	body := map[string]any{"graph": g.id, "seed": r.seed}
	switch r.kind {
	case kOneSided:
		body["algorithm"] = "onesided"
	case kBestOf:
		body["best_of"] = 8
	case kRefine:
		body["refine"] = "exact"
	case kAuction:
		body["algorithm"] = "auction"
	}
	afterWrite := g.patched.Swap(false)
	var ans readAnswer
	t0 := time.Now()
	if _, err := s.call(http.MethodPost, "/match", body, &ans); err != nil {
		return fmt.Errorf("%s %s: %w", g.id, kindNames[r.kind], err)
	}
	service := msBetween(t0, time.Now())
	want := -1
	if s.w.exact {
		want = g.want[r.kind][r.seed-1]
	}
	if ans.Rows != g.base.rows || ans.Cols != g.base.cols {
		return fmt.Errorf("%s %s: answer is %dx%d, graph %dx%d", g.id, kindNames[r.kind], ans.Rows, ans.Cols, g.base.rows, g.base.cols)
	}
	if err := checkRowMate(g, ans.Rows, ans.Cols, ans.RowMate, ans.Size, want); err != nil {
		return fmt.Errorf("%s %s seed %d: %w", g.id, kindNames[r.kind], r.seed, err)
	}
	if log != nil {
		log.mu.Lock()
		if r.kind == kTwoSided && g.sprank > 0 {
			log.quality = append(log.quality, float64(ans.Size)/float64(g.sprank))
		}
		if afterWrite {
			log.afterWrite = append(log.afterWrite, service)
		} else {
			log.warm = append(log.warm, service)
		}
		log.mu.Unlock()
	}
	return nil
}

// patchAnswer is the part of a PATCH answer the checks and metrics use.
type patchAnswer struct {
	Augments       int  `json:"augments"`
	Rescaled       bool `json:"rescaled"`
	MaintainedSize int  `json:"maintained_size"`
}

// patch sends one edge batch. The inserts are recorded as possible edges
// before the send, so a concurrent read that already sees them checks out.
func (s *servingRun) patch(r request, log *readLog) error {
	g := s.graphs[r.graph]
	g.mu.Lock()
	for _, e := range r.ins {
		g.ever[[2]int32{int32(e[0]), int32(e[1])}] = true
	}
	g.mu.Unlock()
	var ans patchAnswer
	if _, err := s.call(http.MethodPatch, "/graph/"+g.id, map[string]any{"insert": r.ins, "delete": r.del}, &ans); err != nil {
		return fmt.Errorf("patch %s: %w", g.id, err)
	}
	g.mu.Lock()
	for _, e := range r.ins {
		g.inserted[[2]int32{int32(e[0]), int32(e[1])}] = true
	}
	for _, e := range r.del {
		g.deleted[[2]int32{int32(e[0]), int32(e[1])}] = true
	}
	g.mu.Unlock()
	g.patched.Store(true)
	if log != nil {
		log.mu.Lock()
		log.augments = append(log.augments, float64(ans.Augments))
		rescaled := 0.0
		if ans.Rescaled {
			rescaled = 1
		}
		log.rescaled = append(log.rescaled, rescaled)
		log.mu.Unlock()
	}
	return nil
}

func (s *servingRun) do(phase int, log *readLog) func(k int) error {
	return func(k int) error {
		r := s.request(phase, k)
		var err error
		if r.kind == kPatch {
			err = s.patch(r, log)
		} else {
			err = s.read(r, log)
		}
		s.rep.op(err)
		return err
	}
}

// passResult is one open-loop plus closed-loop pass.
type passResult struct {
	phase        int // the open loop's phase; the closed loop's is phase+1
	open, closed []sample
	closedDur    time.Duration
	log          *readLog
}

// pass runs the open-loop phase at the workload's fixed rate, then the
// closed-loop phase with nproc clients. Phases are numbered so every pass
// draws fresh requests.
func (s *servingRun) pass(firstPhase int) passResult {
	budget := s.cfg.budget()
	openDur := time.Duration(float64(budget) * s.w.open)
	p := passResult{phase: firstPhase, closedDur: budget - openDur, log: &readLog{}}
	due := poissonSchedule(s.w.rate, openDur, mix(s.cfg.seed, uint64(firstPhase)))
	p.open = openLoop(due, s.cfg.nproc, s.do(firstPhase, p.log))
	p.closed = closedLoop(p.closedDur, s.cfg.nproc, s.do(firstPhase+1, p.log))
	return p
}

func (s *servingRun) endToEnd(p passResult) {
	e := s.rep.e2e
	_, _, e["slo_frac"] = latencyStats(p.open, s.w.limit)
	e["p50_ms"], e["p99_ms"], _ = latencyStats(p.closed, s.w.limit)
	var edges, secs [3]float64
	ok := 0
	for _, c := range p.closed {
		if c.err != nil {
			continue
		}
		ok++
		r := s.request(p.phase+1, c.k)
		cls := -1
		switch r.kind {
		case kTwoSided, kOneSided, kBestOf:
			cls = int(jobHeuristic)
		case kRefine:
			cls = int(jobMaximum)
		case kAuction:
			cls = int(jobWeighted)
		}
		if cls >= 0 {
			edges[cls] += float64(s.graphs[r.graph].nnz())
			secs[cls] += c.service / 1000
		}
	}
	e["capacity_rps"] = float64(ok) / p.closedDur.Seconds()
	e["heuristic_medges_per_s"] = edges[jobHeuristic] / secs[jobHeuristic] / 1e6
	e["maximum_medges_per_s"] = edges[jobMaximum] / secs[jobMaximum] / 1e6
	e["weighted_medges_per_s"] = edges[jobWeighted] / secs[jobWeighted] / 1e6
	e["quality"] = mean(p.log.quality)
}

func runServing(w serveWorkload, cfg runCfg, out io.Writer, rep *report) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, setupS, err := setupTimed(func() (*servingRun, error) { return setupServing(w, cfg, tr, rep) },
		func(s *servingRun) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()
	rep.e2e["setup_s"] = setupS
	nnz := 0
	for _, g := range s.graphs {
		nnz += g.nnz()
		fmt.Fprintf(out, "# input %-4s rows=%d cols=%d nnz=%d weighted=%v sprank=%d\n",
			g.id, g.base.rows, g.base.cols, g.nnz(), g.val != nil, g.sprank)
	}
	fmt.Fprintf(out, "# %s: %d graphs, %d edges; open loop %.0f req/s for %.0f%% of the run, then closed loop; %d connections; limit %v\n",
		w.name, len(s.graphs), nnz, w.rate, 100*w.open, cfg.nproc, w.limit)

	p := s.pass(0)
	s.endToEnd(p)
	s.describe(out, "untraced", p)
	if cfg.trace {
		untracedP50 := rep.e2e["p50_ms"]
		tr.reset()
		st0, cs0 := s.f.serverStats(), s.f.client.Stats()
		tr.on.Store(true)
		tp := s.pass(2)
		tr.on.Store(false)
		st1, cs1 := s.f.serverStats(), s.f.client.Stats()
		s.describe(out, "traced", tp)
		tracedP50, _, _ := latencyStats(tp.closed, w.limit)
		s.layers(tr.analyze(), tp, st1, st0, cs1.Hedges-cs0.Hedges, cs1.HedgeWins-cs0.HedgeWins,
			cs1.FanOuts-cs0.FanOuts, cs1.Retries-cs0.Retries)
		rep.layer["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
		fmt.Fprintf(out, "# tracing overhead: closed-loop p50 %.2f ms traced vs %.2f ms untraced (%+.1f%%)\n",
			tracedP50, untracedP50, rep.layer["trace.overhead_pct"])
	}
	if w.inserts+w.deletes > 0 {
		s.checkFinalState()
	}
	return nil
}

// describe prints a pass's per-kind latency table.
func (s *servingRun) describe(out io.Writer, label string, p passResult) {
	var late []float64
	for _, o := range p.open {
		late = append(late, o.late)
	}
	p50, p99, slo := latencyStats(p.open, s.w.limit)
	c50, c99, _ := latencyStats(p.closed, s.w.limit)
	fmt.Fprintf(out, "# %s pass: open loop %d requests p50 %.2f ms p99 %.2f ms within-limit %.4f, sends late p99 %.2f ms; closed loop %d requests p50 %.2f ms p99 %.2f ms\n",
		label, len(p.open), p50, p99, slo, percentile(late, 99), len(p.closed), c50, c99)
	for phase, ss := range [][]sample{p.open, p.closed} {
		by := map[reqKind][]float64{}
		for _, x := range ss {
			if x.err == nil {
				r := s.request(p.phase+phase, x.k)
				by[r.kind] = append(by[r.kind], x.service)
			}
		}
		kinds := make([]int, 0, len(by))
		for k := range by {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		for _, k := range kinds {
			v := by[reqKind(k)]
			fmt.Fprintf(out, "#   %-6s %-9s n=%-5d service p50 %8.2f ms p99 %8.2f ms\n",
				[]string{"open", "closed"}[phase], kindNames[k], len(v), percentile(v, 50), percentile(v, 99))
		}
	}
}

// layers fills the per-layer metrics of the traced pass.
func (s *servingRun) layers(lt layerTimes, p passResult, st1, st0 bipartite.ServerStats, hedges, wins, fanouts, retries int64) {
	L := s.rep.layer
	L["server.ms_p50"] = percentile(lt.serverMs, 50)
	L["server.ms_p99"] = percentile(lt.serverMs, 99)
	if b := st1.Batches - st0.Batches; b > 0 {
		L["server.batch_mean"] = float64(st1.Requests-st0.Requests) / float64(b)
	}
	L["server.rejected"] = float64(st1.Rejected - st0.Rejected)
	L["servehttp.self_ms_p50"] = percentile(lt.httpSelf, 50)
	L["servehttp.self_ms_p99"] = percentile(lt.httpSelf, 99)
	L["cluster.self_ms"] = percentile(lt.clusterSelf, 50)
	L["cluster.hedges"] = float64(hedges)
	if lt.matchRequests > 0 {
		L["cluster.hedge_waste"] = float64(hedges-wins) / float64(lt.matchRequests)
	}
	L["cluster.fanouts"] = float64(fanouts)
	L["cluster.retries"] = float64(retries)
	L["dyn.patch_ms_p50"] = percentile(lt.patchMs, 50)
	L["dyn.patch_ms_p99"] = percentile(lt.patchMs, 99)
	L["dyn.augments"] = mean(p.log.augments)
	L["dyn.rescaled"] = mean(p.log.rescaled)
	L["dyn.read_after_write_ms"] = percentile(p.log.afterWrite, 50)
	L["dyn.read_warm_ms"] = percentile(p.log.warm, 50)
	var late []float64
	for _, o := range p.open {
		late = append(late, o.late)
	}
	L["loadgen.late_p99_ms"] = percentile(late, 99)
	L["loadgen.open_p50_ms"], L["loadgen.open_p99_ms"], _ = latencyStats(p.open, s.w.limit)
	L["loadgen.conns"] = float64(s.lc.dials.Load())
}

// checkFinalState compares every mutated graph with the benchmark's
// mirror: one more (empty) PATCH reports the maintained size, which must
// equal the mirror's sprank, and GET /graph/{id} must return exactly the
// mirror's edges.
func (s *servingRun) checkFinalState() {
	for _, k := range s.pat {
		g := s.graphs[k]
		mirror := map[[2]int32]bool{}
		for i := 0; i < g.base.rows; i++ {
			for p := g.base.ptr[i]; p < g.base.ptr[i+1]; p++ {
				e := [2]int32{int32(i), g.base.idx[p]}
				if !g.deleted[e] {
					mirror[e] = true
				}
			}
		}
		for e := range g.inserted {
			mirror[e] = true
		}
		edges := make([][2]int32, 0, len(mirror))
		for e := range mirror {
			edges = append(edges, e)
		}
		sortEdges(edges)

		var ans patchAnswer
		if _, err := s.call(http.MethodPatch, "/graph/"+g.id, map[string]any{"insert": [][2]int{}}, &ans); err != nil {
			s.rep.problem("final patch %s: %v", g.id, err)
			continue
		}
		if want := sprankOf(g.base.rows, g.base.cols, edges); ans.MaintainedSize != want {
			s.rep.problem("%s: maintained_size %d, mirror sprank %d", g.id, ans.MaintainedSize, want)
		}
		var got struct {
			Rows  int        `json:"rows"`
			Cols  int        `json:"cols"`
			Edges [][2]int32 `json:"edges"`
		}
		if _, err := s.call(http.MethodGet, "/graph/"+g.id, nil, &got); err != nil {
			s.rep.problem("final get %s: %v", g.id, err)
			continue
		}
		sortEdges(got.Edges)
		if got.Rows != g.base.rows || got.Cols != g.base.cols || !equalEdges(got.Edges, edges) {
			s.rep.problem("%s: router returns %d edges, mirror holds %d", g.id, len(got.Edges), len(edges))
		}
	}
}

func sortEdges(e [][2]int32) {
	sort.Slice(e, func(a, b int) bool {
		if e[a][0] != e[b][0] {
			return e[a][0] < e[b][0]
		}
		return e[a][1] < e[b][1]
	})
}

func equalEdges(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// sprankOf is the exact maximum matching size of a sorted edge list.
func sprankOf(rows, cols int, edges [][2]int32) int {
	ptr := make([]int, rows+1)
	idx := make([]int32, len(edges))
	for k, e := range edges {
		ptr[e[0]+1]++
		idx[k] = e[1]
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	a, err := sparse.New(rows, cols, ptr, idx, nil)
	if err != nil {
		return -1
	}
	return exact.HopcroftKarp(a, nil).Size
}
