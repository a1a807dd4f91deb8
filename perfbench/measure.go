package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// workDir holds the benchmark's temporary files (the global DB's WAL and
// the traced run's span dump), relative to the checkout root the benchmark
// runs from.
var workDir = ".bench_build/perfbench/tmp"

const (
	// minRepetitions is the fewest set-up + timed-phase repetitions a run
	// makes, even past its time budget, so every median has three values.
	minRepetitions = 3
	// tracedMemProfileRate samples one allocation per 64 KiB in traced
	// repetitions, eight times the runtime default, so small layers still
	// get allocation samples.
	tracedMemProfileRate = 64 << 10
	// heapSamplePeriod is how often the peak-heap and goroutine sampler
	// reads the runtime's gauges during a timed phase.
	heapSamplePeriod = 2 * time.Millisecond
)

// workload is one named set of inputs (README.md and BENCHMARK.json say
// why each exists). setup builds everything the timed phase needs (world,
// scenario, plan, registrations, preload) from the seed; the instance's
// run is the timed phase.
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64, rec *recorder) (instance, error)
}

type instance interface {
	run(ctx context.Context) (*phase, error)
	// check verifies the outputs after the timed phase, adding failed
	// checks to the phase's problems.
	check(ctx context.Context, ph *phase) error
	close() error
}

var workloads = []workload{
	{"fleet", setupFleet},
	{"globaldb-rw", setupGlobalDB},
	{"paper-ladder", setupLadder},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// phase is what one timed phase reports. Ops is the denominator of every
// per-op metric; Attempted and Failed feed error_ratio (for the fleet they
// also count sync rounds). Problems are failed correctness checks.
type phase struct {
	Ops       int
	Attempted int
	Failed    int
	Problems  []string
	Note      string
	// Samples are per-op observations by kind: "sync_ms", "report_ms",
	// "plt_s" and "approach.<name>" (virtual PLT of direct transport loads).
	Samples map[string][]float64
	// Counts are raw counters; layerMetrics reduces them to ratios.
	Counts  map[string]float64
	MaxLag  float64
	Virtual time.Duration
}

func newPhase() *phase {
	return &phase{Samples: make(map[string][]float64), Counts: make(map[string]float64)}
}

// repetition is one set-up plus timed phase, as the child process that ran
// it reports it.
type repetition struct {
	Traced     bool
	Setup      float64 // seconds
	Wall       float64 // seconds of the timed phase
	CPU        float64 // user+sys CPU seconds of the timed phase
	Mallocs    float64
	AllocBytes float64
	PeakHeap   float64 // bytes of live-or-unswept heap objects
	Goroutines float64 // peak goroutine count
	RT         rtDelta
	Phase      *phase
	// Traced repetitions only: spans, wrapped-dialer counters, and the
	// profiles attributed to layers.
	Spans       []span
	Dials, Wire float64
	CPULayers   map[string]cost
	AllocLayers map[string]cost
}

type runResult struct {
	wl       workload
	reps     []repetition
	problems []string
	notes    []string
}

// measure repeats set-up and the timed phase until the budget is spent,
// each repetition in a child process of its own: a world has no teardown,
// so repetitions sharing a process would share its leftover goroutines and
// heap. A traced run alternates untraced and traced repetitions, so it
// carries its own untraced baseline for the tracing overhead.
func measure(ctx context.Context, wl workload, seed int64, seconds int, traced bool) (*runResult, error) {
	budget := time.Duration(seconds) * time.Second
	need := minRepetitions
	if traced {
		need = 2 * minRepetitions
	}
	start := time.Now()
	r := &runResult{wl: wl}
	for i := 0; i < need || time.Since(start) < budget; i++ {
		it, err := runChild(ctx, wl, seed, i, traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		r.reps = append(r.reps, it)
		if it.Phase.Note != "" {
			r.notes = append(r.notes, fmt.Sprintf("repetition %d: %s", i, it.Phase.Note))
		}
		for _, p := range it.Phase.Problems {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
	}
	if traced {
		if err := writeSpans(wl.name, r.reps); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runChild runs repetition i in a child process of this binary and decodes
// the result the child writes to its standard output.
func runChild(ctx context.Context, wl workload, seed int64, i int, traced bool) (repetition, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", t, "-repetition", strconv.Itoa(i))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return repetition{}, err
	}
	var it repetition
	if err := gob.NewDecoder(&out).Decode(&it); err != nil {
		return repetition{}, fmt.Errorf("decode child result: %w", err)
	}
	return it, nil
}

// runRepetition is the child's side of runChild: one repetition, encoded
// to w.
func runRepetition(ctx context.Context, w io.Writer, wl workload, seed int64, i int, traced bool) error {
	it, err := measureRepetition(ctx, wl, repetitionSeed(seed, i), traced)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(it)
}

// repetitionSeed derives repetition i's input seed: the same --seed always
// yields the same sequence of inputs, and repetitions differ from each
// other so a run's medians do not rest on one draw.
func repetitionSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i) + 1
}

func measureRepetition(ctx context.Context, wl workload, seed int64, traced bool) (it repetition, err error) {
	it.Traced = traced
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	t0 := time.Now()
	inst, err := wl.setup(ctx, seed, rec)
	it.Setup = time.Since(t0).Seconds()
	if err != nil {
		return it, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	var prof *profiler
	if traced {
		runtime.MemProfileRate = tracedMemProfileRate
	}
	runtime.GC()
	if traced {
		if prof, err = startProfiler(); err != nil {
			return it, err
		}
	}
	if rec != nil {
		rec.dials.Store(0)
		rec.wire.Store(0)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	samp := startSampler()
	w0 := time.Now()
	ph, runErr := inst.run(ctx)
	it.Wall = time.Since(w0).Seconds()
	it.PeakHeap, it.Goroutines = samp.stop()
	it.CPU = cpuSeconds() - cpu0
	it.RT = readRuntime().sub(rt0)
	runtime.ReadMemStats(&m1)
	if prof != nil {
		if it.CPULayers, it.AllocLayers, err = prof.stop(); err != nil {
			return it, err
		}
	}
	if runErr != nil {
		return it, runErr
	}
	if err := inst.check(ctx, ph); err != nil {
		return it, fmt.Errorf("check: %w", err)
	}
	it.Phase = ph
	it.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	it.AllocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	if rec != nil {
		it.Spans = rec.spans
		it.Dials, it.Wire = float64(rec.dials.Load()), float64(rec.wire.Load())
	}
	return it, nil
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sampler tracks the peak heap and goroutine count during a timed phase.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	heap  float64
	gor   float64
}

var sampledGauges = []string{"/memory/classes/heap/objects:bytes", "/sched/goroutines:goroutines"}

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	buf := make([]metrics.Sample, len(sampledGauges))
	for i, n := range sampledGauges {
		buf[i].Name = n
	}
	read := func() {
		metrics.Read(buf)
		s.heap = max(s.heap, float64(buf[0].Value.Uint64()))
		s.gor = max(s.gor, float64(buf[1].Value.Uint64()))
	}
	read()
	go func() {
		defer close(s.done)
		tk := time.NewTicker(heapSamplePeriod)
		defer tk.Stop()
		for {
			select {
			case <-s.stopc:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return s
}

func (s *sampler) stop() (heap, goroutines float64) {
	close(s.stopc)
	<-s.done
	return s.heap, s.gor
}

// rtDelta is the change in the runtime's cumulative counters over a timed
// phase.
type rtDelta struct {
	GCCPU, UsedCPU float64 // seconds
	GCCycles       float64
	MutexWait      float64 // seconds
	SchedCounts    []uint64
	SchedBuckets   []float64
}

var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

type rtSnapshot []metrics.Sample

func readRuntime() rtSnapshot {
	s := make(rtSnapshot, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (s rtSnapshot) sub(old rtSnapshot) rtDelta {
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64() - old[i].Value.Uint64())
		}
		return s[i].Value.Float64() - old[i].Value.Float64()
	}
	d := rtDelta{
		GCCPU:     f(0),
		UsedCPU:   f(1) - f(2),
		GCCycles:  f(3),
		MutexWait: f(4),
	}
	h, h0 := s[5].Value.Float64Histogram(), old[5].Value.Float64Histogram()
	d.SchedBuckets = h.Buckets
	d.SchedCounts = make([]uint64, len(h.Counts))
	for i := range h.Counts {
		d.SchedCounts[i] = h.Counts[i] - h0.Counts[i]
	}
	return d
}
