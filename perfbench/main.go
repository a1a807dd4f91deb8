// Command perfbench is the repository benchmark. One invocation runs one
// workload against the repo's public Go APIs for a fixed time, checks the
// workload's outputs, and prints a table of its metrics followed by one JSON
// line:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// A run repeats set-up and a fixed timed phase until the time is spent, and
// reports medians over the repetitions. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it alternates untraced and traced
// repetitions and prints the per-layer metrics: CPU and allocation profiles
// reduced to the repo's modules, runtime scheduler and GC figures, the
// program's own counters, spans around the public calls, and the tracing
// overhead. README.md lists the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Int("seconds", 20, "time budget of the measurement, in seconds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		rep     = flag.Int("repetition", -1, "run only this repetition and write it to stdout for the parent (internal)")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *rep >= 0 {
		if err := runRepetition(context.Background(), os.Stdout, wl, *seed, *rep, *traced == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d: %v\n", wl.name, *rep, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *traced)
	fmt.Printf("machine go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	run, err := measure(context.Background(), wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	var out, specific []metric
	if *traced == 1 {
		out = run.layerMetrics()
	} else {
		out, specific = run.endToEnd()
	}
	printTable(run, append(out, specific...))
	line, err := resultLine(run, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !run.correct() {
		os.Exit(1)
	}
}

// metric is one reported number. n is its sample count: the samples a
// percentile was taken over, or the repetitions a median was taken over.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

func printTable(r *runResult, ms []metric) {
	for _, note := range r.notes {
		fmt.Println("note", note)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED", p)
	}
	for i, it := range r.reps {
		fmt.Printf("repetition %d traced=%t setup=%.4fs wall=%.4fs cpu=%.4fs ops=%d list_bytes_per_sync=%.1f\n",
			i, it.Traced, it.Setup, it.Wall, it.CPU, it.Phase.Ops,
			ratio(it.Phase.Counts["list-bytes"], it.Phase.Counts["list-fetches"]))
	}
	fmt.Printf("ops=%d attempted=%d failed=%d repetitions=%d (traced %d)\n",
		r.ops(), r.attempted(), r.failed(), len(r.reps), len(r.traced()))
	fmt.Printf("%-44s %16s %-8s %s\n", "metric", "value", "unit", "n")
	for _, m := range ms {
		fmt.Printf("%-44s %16.6g %-8s %d\n", m.name, m.value, m.unit, m.n)
	}
}

// resultLine renders the final JSON object.
func resultLine(r *runResult, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.correct(),
		Attempted: max(r.attempted(), 1),
		Failed:    r.failed(),
		Metrics:   make(map[string]value, len(ms)),
	}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// cpuModel names the processor for the machine fingerprint; the figures a
// run prints are only comparable between runs on the same model.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
