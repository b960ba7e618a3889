package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	bipartite "repro"
	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scale"
	"repro/internal/sparse"
)

// solveInstanceNames are the pattern instances of the solve workload: four
// catalog analogs at "small" scale plus the two adversarial families.
var solveInstanceNames = []string{"mesh3d7", "uniform19", "roadnet21", "heavytail", "rankdef", "longthin"}

// solveLimit is the solve workload's latency limit per job.
const solveLimit = 3 * time.Second

// instance is one generated input: a row-sorted CSR pattern, optionally
// weighted, plus the references the output checks compare against.
type instance struct {
	name     string
	a        *sparse.CSR
	weighted bool
	seed     uint64 // the job seed every Spec on this instance runs with
	sprank   int    // exact.HopcroftKarp size, computed at set-up
	heur     int    // TwoSided size at seed, computed at set-up
}

func (in *instance) graph() (*bipartite.Graph, error) {
	a := in.a
	if in.weighted {
		return bipartite.NewWeightedGraph(a.RowsN, a.ColsN, a.Ptr, a.Idx, a.Val)
	}
	return bipartite.NewGraph(a.RowsN, a.ColsN, a.Ptr, a.Idx)
}

// mix derives independent generator seeds from the workload seed.
func mix(seed uint64, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9 + 1
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	if z == 0 {
		z = 1
	}
	return z
}

// withWeights returns a copy of a's pattern carrying seeded weights.
func withWeights(a *sparse.CSR, dist bipartite.WeightDist, seed uint64) *sparse.CSR {
	g, err := bipartite.NewGraph(a.RowsN, a.ColsN, a.Ptr, a.Idx)
	if err != nil {
		panic(err) // generator output is always a valid pattern
	}
	w := g.RandomWeights(dist, seed)
	return &sparse.CSR{RowsN: a.RowsN, ColsN: a.ColsN, Ptr: a.Ptr, Idx: a.Idx, Val: w.Weights()}
}

// solveInputs generates the solve workload's instances from the seed: the
// pattern instances, then one weighted ER pattern under uniform and under
// skewed weights. The mesh and the long thin path have no random
// structure; the seed reaches them through the job seeds.
func solveInputs(seed uint64) []*instance {
	ins := []*instance{
		{name: "mesh3d7", a: gen.Grid3D(58, 58, 58, false)},
		{name: "uniform19", a: gen.ERAvgDeg(280000, 280000, 19, mix(seed, 1))},
		{name: "roadnet21", a: gen.RoadLike(600000, 2.1, mix(seed, 2))},
		{name: "heavytail", a: gen.PowerLaw(60000, 15, 1.35, 30000, mix(seed, 3))},
		{name: "rankdef", a: gen.RankDeficient(200000, 60000, 4, mix(seed, 4))},
		{name: "longthin", a: gen.LongThinPath(200000)},
	}
	er := gen.ERAvgDeg(200000, 200000, 8, mix(seed, 5))
	ins = append(ins,
		&instance{name: "wuniform", a: withWeights(er, bipartite.WeightUniform, mix(seed, 6)), weighted: true},
		&instance{name: "wskewed", a: withWeights(er, bipartite.WeightSkewed, mix(seed, 7)), weighted: true})
	for k, in := range ins {
		in.seed = mix(seed, uint64(100+k))
	}
	return ins
}

// jobKind is what a solve job asks of Graph.Match.
type jobKind int

const (
	jobHeuristic jobKind = iota // Spec{TwoSided}
	jobMaximum                  // Spec{TwoSided, Refine: RefineExact}
	jobWeighted                 // Spec{Algorithm: AlgAuction}
)

type solveJob struct {
	in   *instance
	kind jobKind
}

func (j solveJob) spec() bipartite.Spec {
	switch j.kind {
	case jobMaximum:
		return bipartite.Spec{Seed: j.in.seed, Refine: bipartite.RefineExact}
	case jobWeighted:
		return bipartite.Spec{Seed: j.in.seed, Algorithm: bipartite.AlgAuction}
	}
	return bipartite.Spec{Seed: j.in.seed}
}

func solveJobs(ins []*instance) []solveJob {
	var jobs []solveJob
	for _, in := range ins {
		if in.weighted {
			jobs = append(jobs, solveJob{in, jobWeighted})
		} else {
			jobs = append(jobs, solveJob{in, jobHeuristic}, solveJob{in, jobMaximum})
		}
	}
	return jobs
}

// solveSetup generates the inputs and computes the references the output
// checks need: the exact sprank and the TwoSided size at the job seed.
func solveSetup(cfg runCfg) ([]*instance, error) {
	ins := solveInputs(cfg.seed)
	opt := solveOptions(cfg)
	for _, in := range ins {
		if in.weighted {
			continue
		}
		in.sprank = exact.HopcroftKarp(in.a, nil).Size
		g, err := in.graph()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		res, err := g.Match(bipartite.Spec{Seed: in.seed}, opt)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", in.name, err)
		}
		in.heur = res.Matching.Size
	}
	return ins, nil
}

func solveOptions(cfg runCfg) *bipartite.Options {
	return &bipartite.Options{ScalingIterations: -1, Workers: cfg.nproc}
}

// jobOutcome is one measured Graph.Match call.
type jobOutcome struct {
	d                 time.Duration
	heuristic, refine int
	with              bipartite.Refinement
}

// runJob times one job on a fresh graph — building it is part of the job,
// so its transpose and sprank caches start cold — then checks the answer.
func runJob(j solveJob, opt *bipartite.Options) (jobOutcome, error) {
	t0 := time.Now()
	g, err := j.in.graph()
	if err != nil {
		return jobOutcome{}, err
	}
	res, err := g.Match(j.spec(), opt)
	d := time.Since(t0)
	if err != nil {
		return jobOutcome{d: d}, fmt.Errorf("%s: %w", j.in.name, err)
	}
	out := jobOutcome{d: d, heuristic: res.HeuristicSize, refine: res.Matching.Size, with: res.RefinedWith}
	if err := g.ValidateMatching(res.Matching); err != nil {
		return out, fmt.Errorf("%s: %w", j.in.name, err)
	}
	switch j.kind {
	case jobHeuristic:
		if res.Matching.Size != j.in.heur {
			return out, fmt.Errorf("%s: TwoSided size %d, reference %d", j.in.name, res.Matching.Size, j.in.heur)
		}
	case jobMaximum:
		if res.Matching.Size != j.in.sprank || res.HeuristicSize != j.in.heur {
			return out, fmt.Errorf("%s: refined %d from %d, want %d from %d",
				j.in.name, res.Matching.Size, res.HeuristicSize, j.in.sprank, j.in.heur)
		}
	case jobWeighted:
		if res.DualBound <= 0 || res.MatchedWeight/res.DualBound < 1-res.Epsilon {
			return out, fmt.Errorf("%s: weight %g vs dual bound %g misses 1-%g",
				j.in.name, res.MatchedWeight, res.DualBound, res.Epsilon)
		}
	}
	return out, nil
}

// setupTimed runs setup setupReps times and returns the last result with
// the median set-up time; earlier results are released first so the peak
// resident set reflects one set-up.
func setupTimed[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			release(last)
			var zero T
			last = zero
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

func runSolve(cfg runCfg, out io.Writer, rep *report) error {
	ins, setupS, err := setupTimed(func() ([]*instance, error) { return solveSetup(cfg) }, func([]*instance) {})
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = setupS
	for _, in := range ins {
		fmt.Fprintf(out, "# input %-10s rows=%d cols=%d nnz=%d weighted=%v sprank=%d\n",
			in.name, in.a.RowsN, in.a.ColsN, in.a.NNZ(), in.weighted, in.sprank)
	}

	jobs := solveJobs(ins)
	opt := solveOptions(cfg)
	times := make([][]float64, len(jobs)) // seconds, per job
	outcomes := make([]jobOutcome, len(jobs))
	inSLO, samples := 0, 0
	deadline := time.Now().Add(cfg.budget())
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for k, j := range jobs {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			o, err := runJob(j, opt)
			rep.op(err)
			times[k] = append(times[k], o.d.Seconds())
			samples++
			outcomes[k] = o
			if err == nil && o.d <= solveLimit {
				inSLO++
			}
		}
	}

	// Throughput per job kind: input edges over the summed median job
	// times, so one slow repetition does not move it.
	var edges, secs [3]float64
	var quality []float64
	jobMedian := make([]float64, len(jobs))
	for k, j := range jobs {
		jobMedian[k] = median(times[k])
		edges[j.kind] += float64(j.in.a.NNZ())
		secs[j.kind] += jobMedian[k]
		if j.kind == jobHeuristic && j.in.sprank > 0 {
			quality = append(quality, float64(outcomes[k].refine)/float64(j.in.sprank))
		}
	}
	total := 0.0
	for _, s := range secs {
		total += s
	}
	rep.e2e["heuristic_medges_per_s"] = edges[jobHeuristic] / secs[jobHeuristic] / 1e6
	rep.e2e["maximum_medges_per_s"] = edges[jobMaximum] / secs[jobMaximum] / 1e6
	rep.e2e["weighted_medges_per_s"] = edges[jobWeighted] / secs[jobWeighted] / 1e6
	rep.e2e["quality"] = mean(quality)
	// solve has a fixed set of jobs, not a request stream, and their times
	// cluster by instance size: a plain percentile over 14 values jumps
	// from one cluster to the next when a few jobs slow down. The typical
	// job is the geometric mean of the job median times and the tail the
	// geometric mean of the three slowest, both of which move in proportion
	// to the jobs they summarize.
	jobMs := make([]float64, len(jobs))
	for k := range jobs {
		jobMs[k] = 1000 * jobMedian[k]
	}
	sort.Float64s(jobMs)
	rep.e2e["p50_ms"] = geomean(jobMs)
	rep.e2e["p99_ms"] = geomean(jobMs[len(jobMs)-3:])
	rep.e2e["slo_frac"] = float64(inSLO) / float64(samples)
	rep.e2e["capacity_rps"] = float64(len(jobs)) / total

	fmt.Fprintf(out, "# solve: %d jobs in %d samples, workers=%d, limit %v\n", len(jobs), samples, cfg.nproc, solveLimit)
	fmt.Fprintf(out, "# %-10s %-9s %10s %8s %10s %8s\n", "instance", "job", "median_ms", "reps", "size", "engine")
	for k, j := range jobs {
		fmt.Fprintf(out, "# %-10s %-9s %10.2f %8d %10d %8s\n", j.in.name, [...]string{"twosided", "refine", "auction"}[j.kind],
			jobMedian[k]*1000, len(times[k]), outcomes[k].refine, outcomes[k].with)
	}
	if !cfg.trace {
		return nil
	}
	return traceSolve(cfg, out, rep, jobs, jobMedian, outcomes)
}

// solveSpans are one replay of a job through the layers' public calls.
type solveSpans struct {
	build, transpose, sk, sample, match, refine, hkCold float64
	prepare, finish                                     float64
	heuristic, refined, rounds                          int
	cert                                                float64
	with                                                bipartite.Refinement
}

func (s solveSpans) total() float64 {
	return s.build + s.transpose + s.sk + s.sample + s.match + s.refine + s.prepare + s.finish
}

// replayPattern re-runs a TwoSided(+refine) job as separate timed calls
// into sparse, scale, core and exact, configured exactly as Graph.Match
// configures them, so the replayed sizes equal the job's.
func replayPattern(in *instance, nproc int, refine bool) (solveSpans, error) {
	var s solveSpans
	pool := par.Default()
	t := time.Now()
	lap := func() float64 { now := time.Now(); d := now.Sub(t).Seconds(); t = now; return d }

	a, err := sparse.New(in.a.RowsN, in.a.ColsN, in.a.Ptr, in.a.Idx, nil)
	if err != nil {
		return s, err
	}
	if !a.HasSortedRows() {
		a.SortRows()
	}
	s.build = lap()
	at := a.Transpose()
	s.transpose = lap()
	sc, err := scale.SinkhornKnopp(a, at, scale.Options{MaxIters: 5, Workers: nproc, Policy: par.Dynamic, Pool: pool, Ws: &scale.Workspace{}})
	if err != nil {
		return s, err
	}
	s.sk = lap()
	copt := core.Options{Workers: nproc, Policy: par.Dynamic, Chunk: par.DefaultChunk, KSPolicy: par.Guided,
		Seed: in.seed, Pool: pool, RowTotals: sc.RSum, ColTotals: sc.CSum}
	rch := core.SampleRowChoices(a, sc.DR, sc.DC, copt)
	cch := core.SampleColChoices(at, sc.DR, sc.DC, copt)
	s.sample = lap()
	cg := core.NewChoiceGraph(a.RowsN, a.ColsN, rch, cch)
	mt := core.DecodeMatch(cg, core.KarpSipserMT(cg, copt))
	s.match = lap()
	s.heuristic, s.refined = mt.Size, mt.Size
	if refine {
		// RefineExact resolves to the graft engine at 2<<20 edges and
		// above, the threshold Matcher.resolveRefine applies.
		if a.NNZ() >= 2<<20 {
			gr := exact.NewGraftRefinerWs(a, mt, &exact.Workspace{})
			gr.SetTranspose(at)
			gr.SetParallel(pool, min(pool.Workers(nproc), pool.Width()))
			mt = gr.Run()
			s.with = bipartite.RefineGraft
		} else {
			mt = exact.NewHKRefinerWs(a, mt, &exact.Workspace{}).Run()
			s.with = bipartite.RefineExact
		}
		s.refine = lap()
		s.refined = mt.Size
	}
	t = time.Now()
	exact.HopcroftKarp(a, nil)
	s.hkCold = lap()
	return s, nil
}

// replayAuction re-runs an auction job as timed Prepare and Finish calls.
func replayAuction(in *instance, nproc int) (solveSpans, error) {
	var s solveSpans
	pool := par.Default()
	t := time.Now()
	lap := func() float64 { now := time.Now(); d := now.Sub(t).Seconds(); t = now; return d }
	a, err := sparse.New(in.a.RowsN, in.a.ColsN, in.a.Ptr, in.a.Idx, in.a.Val)
	if err != nil {
		return s, err
	}
	if !a.HasSortedRows() {
		a.SortRows()
	}
	s.build = lap()
	at := a.Transpose()
	s.transpose = lap()
	popt := auction.Options{Epsilon: bipartite.DefaultEpsilon, Workers: min(pool.Workers(nproc), pool.Width()), Pool: pool}
	ws := &auction.Workspace{}
	st, epsAbs, err := auction.Prepare(a, at, popt, ws)
	if err != nil {
		return s, err
	}
	s.prepare = lap()
	res, err := auction.Finish(a, at, popt, in.seed, epsAbs, st, ws)
	if err != nil {
		return s, err
	}
	s.finish = lap()
	s.heuristic, s.refined, s.rounds = res.Matching.Size, res.Matching.Size, res.Rounds
	if res.DualBound > 0 {
		s.cert = res.Weight / res.DualBound
	}
	return s, nil
}

// replayReps is how many replays of each job the traced pass times; the
// per-layer numbers are their medians.
const replayReps = 3

// traceSolve replays every job through the layers' public calls, checks
// that the replay reproduces the measured job's sizes, and reports the
// per-layer split plus the heuristic-versus-exact crossover table.
func traceSolve(cfg runCfg, out io.Writer, rep *report, jobs []solveJob, jobMedian []float64, outcomes []jobOutcome) error {
	type agg struct{ build, transpose, sk, sample, match, refine, hk, prepare, finish, total []float64 }
	spans := make([]agg, len(jobs))
	last := make([]solveSpans, len(jobs))
	for r := 0; r < replayReps; r++ {
		for k, j := range jobs {
			var s solveSpans
			var err error
			if j.kind == jobWeighted {
				s, err = replayAuction(j.in, cfg.nproc)
			} else {
				s, err = replayPattern(j.in, cfg.nproc, j.kind == jobMaximum)
			}
			if err == nil && (s.heuristic != outcomes[k].heuristic || s.refined != outcomes[k].refine) {
				err = fmt.Errorf("%s replay sizes %d→%d differ from the job's %d→%d",
					j.in.name, s.heuristic, s.refined, outcomes[k].heuristic, outcomes[k].refine)
			}
			if err == nil && j.kind == jobMaximum && s.with != outcomes[k].with {
				err = fmt.Errorf("%s replay refined with %v, the job with %v", j.in.name, s.with, outcomes[k].with)
			}
			rep.op(err)
			a := &spans[k]
			a.build = append(a.build, s.build)
			a.transpose = append(a.transpose, s.transpose)
			a.sk = append(a.sk, s.sk)
			a.sample = append(a.sample, s.sample)
			a.match = append(a.match, s.match)
			a.refine = append(a.refine, s.refine)
			a.hk = append(a.hk, s.hkCold)
			a.prepare = append(a.prepare, s.prepare)
			a.finish = append(a.finish, s.finish)
			a.total = append(a.total, s.total())
			last[k] = s
		}
	}

	L := rep.layer
	replayTotal, jobTotal := 0.0, 0.0
	cert := 1.0
	for k, j := range jobs {
		a := spans[k]
		L["sparse.build_s"] += median(a.build)
		L["sparse.transpose_s"] += median(a.transpose)
		L["engine.self_s"] += jobMedian[k] - median(a.total)
		replayTotal += median(a.total)
		jobTotal += jobMedian[k]
		switch j.kind {
		case jobHeuristic:
			n := j.in.name
			L["scale.sk_s."+n] = median(a.sk)
			L["core.sample_s."+n] = median(a.sample)
			L["core.match_s."+n] = median(a.match)
			L["exact.hk_cold_s."+n] = median(a.hk)
		case jobMaximum:
			n := j.in.name
			L["exact.refine_s."+n] = median(a.refine)
			L["exact.paths."+n] = float64(last[k].refined - last[k].heuristic)
		case jobWeighted:
			L["auction.prepare_s"] += median(a.prepare)
			L["auction.finish_s"] += median(a.finish)
			L["auction.rounds"] += float64(last[k].rounds)
			cert = min(cert, last[k].cert)
		}
	}
	L["auction.cert"] = cert
	L["trace.overhead_pct"] = 100 * (replayTotal - jobTotal) / jobTotal

	// Crossover: is a scaling heuristic plus exact refinement ever cheaper
	// than a cold exact solve? hk_job is a replayed graph build plus
	// exact.HopcroftKarp from scratch.
	fmt.Fprintf(out, "# crossover (nproc=%d, workers=%d; ms, medians of %d replays; job times from the untraced pass)\n",
		cfg.nproc, cfg.nproc, replayReps)
	fmt.Fprintf(out, "# %-10s %9s %9s | %7s %7s %7s %7s %8s %8s | %9s %7s %s\n", "instance", "heur_job", "max_job",
		"build+T", "sk", "sample", "match", "refine", "paths", "hk_job", "winner", "engine")
	names := make([]string, 0)
	byName := map[string][2]int{}
	for k, j := range jobs {
		if j.kind == jobWeighted {
			continue
		}
		p := byName[j.in.name]
		p[j.kind] = k
		if j.kind == jobHeuristic {
			names = append(names, j.in.name)
		}
		byName[j.in.name] = p
	}
	sort.Strings(names)
	for _, n := range names {
		h, m := byName[n][jobHeuristic], byName[n][jobMaximum]
		ms := func(v []float64) float64 { return 1000 * median(v) }
		// A cold exact solve from the user's side: build the graph, run HK.
		hkJob := ms(spans[h].build) + ms(spans[h].hk)
		winner := "hk_cold"
		if 1000*jobMedian[m] < hkJob {
			winner = "heur+refine"
		}
		fmt.Fprintf(out, "# %-10s %9.2f %9.2f | %7.2f %7.2f %7.2f %7.2f %8.2f %8d | %9.2f %7s %s\n", n,
			1000*jobMedian[h], 1000*jobMedian[m], ms(spans[m].build)+ms(spans[m].transpose), ms(spans[m].sk),
			ms(spans[m].sample), ms(spans[m].match), ms(spans[m].refine), last[m].refined-last[m].heuristic,
			hkJob, winner, last[m].with)
	}
	fmt.Fprintf(out, "# tracing overhead: replayed spans sum to %.1f ms against %.1f ms of untraced jobs (%+.1f%%)\n",
		1000*replayTotal, 1000*jobTotal, L["trace.overhead_pct"])
	return nil
}
