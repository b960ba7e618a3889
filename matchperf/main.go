// Command matchperf is the repository's end-to-end benchmark. It drives the
// matching library and its serving stack on the paths users call —
// Graph.Match for one-off solves, and a router in front of two HTTP
// replicas for served traffic — checks every answer, and prints the
// metrics named in BENCHMARK.json. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash matchperf/run.sh --workload solve --seed 1 --seconds 20 --trace 0
//	bash matchperf/run.sh spread --workload serve --runs 5
//
// With --trace 0 the last line of standard output is one JSON object
// carrying every end-to-end metric; with --trace 1 it carries every
// per-layer metric instead, measured by a traced pass that follows an
// untraced one. Lines before it are a machine header and human-readable
// tables, each starting with "#".
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
}

func (c runCfg) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

type metricDef struct{ name, unit string }

// e2eMetrics are printed by every --trace 0 run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"heuristic_medges_per_s", "Medges/s"},
	{"maximum_medges_per_s", "Medges/s"},
	{"weighted_medges_per_s", "Medges/s"},
	{"quality", "ratio"},
	{"p50_ms", "ms"},
	{"slo_frac", "frac"},
	{"capacity_rps", "1/s"},
}

// layerMetrics are printed by every --trace 1 run, on every workload; a
// layer the workload does not exercise reports 0. p99_ms leads the list:
// it is the end-to-end tail, measured like p50_ms, but it moves too much
// between runs on a small shared machine to carry a regression bound.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"p99_ms", "ms"},
		{"sparse.build_s", "s"},
		{"sparse.transpose_s", "s"},
	}
	for _, name := range solveInstanceNames {
		defs = append(defs,
			metricDef{"scale.sk_s." + name, "s"},
			metricDef{"core.sample_s." + name, "s"},
			metricDef{"core.match_s." + name, "s"},
			metricDef{"exact.refine_s." + name, "s"},
			metricDef{"exact.paths." + name, "count"},
			metricDef{"exact.hk_cold_s." + name, "s"},
		)
	}
	return append(defs,
		metricDef{"auction.prepare_s", "s"},
		metricDef{"auction.finish_s", "s"},
		metricDef{"auction.rounds", "count"},
		metricDef{"auction.cert", "ratio"},
		metricDef{"engine.self_s", "s"},
		metricDef{"server.ms_p50", "ms"},
		metricDef{"server.ms_p99", "ms"},
		metricDef{"server.batch_mean", "count"},
		metricDef{"server.rejected", "count"},
		metricDef{"servehttp.self_ms_p50", "ms"},
		metricDef{"servehttp.self_ms_p99", "ms"},
		metricDef{"cluster.self_ms", "ms"},
		metricDef{"cluster.hedges", "count"},
		metricDef{"cluster.hedge_waste", "frac"},
		metricDef{"cluster.fanouts", "count"},
		metricDef{"cluster.retries", "count"},
		metricDef{"dyn.patch_ms_p50", "ms"},
		metricDef{"dyn.patch_ms_p99", "ms"},
		metricDef{"dyn.augments", "count"},
		metricDef{"dyn.rescaled", "frac"},
		metricDef{"dyn.read_after_write_ms", "ms"},
		metricDef{"dyn.read_warm_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.open_p50_ms", "ms"},
		metricDef{"loadgen.open_p99_ms", "ms"},
		metricDef{"loadgen.conns", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// report collects one run's metrics, operation counts and failed checks.
// Workers of the load generator record into it concurrently.
type report struct {
	mu        sync.Mutex
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.problemLocked(err.Error())
	}
}

// problem records a failed output check that is not tied to one
// operation (a final-state comparison, say).
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problemLocked(fmt.Sprintf(format, args...))
}

func (r *report) problemLocked(msg string) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, msg)
	}
}

// okFrac is the share of attempted operations that succeeded.
func (r *report) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runCfg, io.Writer, *report) error{
	"solve":        runSolve,
	"serve":        runServe,
	"serve-mutate": runServeMutate,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:]))
	}
	fset := flag.NewFlagSet("matchperf", flag.ExitOnError)
	workload := fset.String("workload", "", "workload: solve, serve or serve-mutate")
	seed := fset.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fset.Float64("seconds", 20, "seconds each pass measures")
	trace := fset.Int("trace", 0, "1 prints per-layer metrics from a traced pass, 0 end-to-end metrics")
	fset.Parse(os.Args[1:])
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "matchperf: need --workload solve|serve|serve-mutate, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: runtime.NumCPU()}

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# matchperf workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintf(out, "# machine nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commitID())
	rep := newReport()
	err := run(cfg, out, rep)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "matchperf: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.e2e["ok_frac"] = rep.okFrac()
	rep.layer["p99_ms"] = rep.e2e["p99_ms"] // from the untraced pass

	defs, values := e2eMetrics, rep.e2e
	if cfg.trace {
		defs, values = layerMetrics(), rep.layer
	}
	line := resultLine{
		Correct:   rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "matchperf: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "# metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", p)
	}
	b, _ := json.Marshal(line) // a map of plain numbers always marshals
	out.Write(b)
	out.WriteString("\n")
	out.Flush()
	if !line.Correct {
		os.Exit(1)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// commitID names the code under test: the VCS revision stamped into the
// build when there is one, otherwise a digest of the module's Go sources
// (a checkout without version control still gets a stable identity).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
