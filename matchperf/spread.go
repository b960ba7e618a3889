package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spreadMain runs the benchmark several times on one workload, each run
// with the next seed, and prints every metric's median and quartile
// spread (Q3−Q1 as a share of the median) — the steadiness check the
// bounds in BENCHMARK.json are held to.
func spreadMain(args []string) int {
	fset := flag.NewFlagSet("matchperf spread", flag.ExitOnError)
	workload := fset.String("workload", "", "workload to repeat")
	runs := fset.Int("runs", 5, "number of runs")
	seed0 := fset.Uint64("seed0", 1, "seed of the first run; run k uses seed0+k")
	seconds := fset.Float64("seconds", 20, "seconds each pass measures")
	trace := fset.Int("trace", 0, "trace setting passed to each run")
	fset.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchperf spread:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < *runs; k++ {
		seed := *seed0 + uint64(k)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "matchperf spread: seed %d: %v\n", seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "matchperf spread: seed %d: bad result line (%v)\n", seed, err)
			return 1
		}
		parts := []string{fmt.Sprintf("seed=%d", seed)}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, name := range sortedKeys(res.Metrics) {
			parts = append(parts, fmt.Sprintf("%s=%.4g", name, res.Metrics[name].Value))
		}
		fmt.Println(strings.Join(parts, " "))
	}
	fmt.Printf("%-28s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range sortedKeys(values) {
		q1, q2, q3, _ := quartiles(values[name])
		fmt.Printf("%-28s %12.5g %12.5g %12.5g %8.3f %s\n", name, q1, q2, q3, relSpread(values[name]), units[name])
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
