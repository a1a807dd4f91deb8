package main

import (
	"math"
	"testing"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if median0(nil) != 0 {
		t.Error("median0 of no samples should be 0")
	}
}

func TestHistPercentileReadsBucketBounds(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1, math.Inf(1)}
	counts := []uint64{0, 5, 5}
	if got := histPercentile(counts, buckets, 50); got != 1 {
		t.Errorf("p50 = %g, want the upper bound 1", got)
	}
	if got := histPercentile(counts, buckets, 99); got != 1 {
		t.Errorf("p99 = %g, want the open bucket's lower bound 1", got)
	}
	if got := histPercentile([]uint64{0, 0, 0}, buckets, 99); got != 0 {
		t.Errorf("empty histogram p99 = %g, want 0", got)
	}
}

// iter builds an untraced repetition with the given latency samples.
func iter(wall float64, ops int, sync []float64) repetition {
	ph := newPhase()
	ph.Ops, ph.Attempted = ops, ops
	ph.Samples["sync_ms"] = sync
	return repetition{Setup: 0.5, Wall: wall, CPU: wall, Phase: ph}
}

func TestEndToEndMediansAndSampleCounts(t *testing.T) {
	var a, b []float64
	for i := 0; i < 600; i++ {
		a = append(a, float64(i))
		b = append(b, float64(600+i))
	}
	r := &runResult{reps: []repetition{iter(2, 100, a), iter(4, 100, b), iter(3, 100, nil)}}
	gated, specific := r.endToEnd()
	got := map[string]metric{}
	for _, m := range append(gated, specific...) {
		got[m.name] = m
	}
	if m := got["wall_s"]; m.value != 3 || m.n != 3 {
		t.Errorf("wall_s = %+v, want the median 3 over 3 repetitions", m)
	}
	if m := got["ops_per_s"]; m.value != 100.0/3 {
		t.Errorf("ops_per_s = %g, want the median repetition's 100/3", m.value)
	}
	if m := got["sync_p50_ms"]; m.n != 1200 || m.value != 599.5 {
		t.Errorf("sync_p50_ms = %+v, want 599.5 over 1200 pooled samples", m)
	}
	if _, ok := got["sync_p99_ms"]; !ok {
		t.Error("sync_p99_ms missing")
	}
	if _, ok := got["sync_p99.9_ms"]; ok {
		t.Error("1200 samples leave fewer than ten beyond p99.9; it must not be reported")
	}
	if _, ok := got["report_p50_ms"]; ok {
		t.Error("a workload without report samples must not report report latency")
	}
	if len(gated) != 8 {
		t.Errorf("%d gated metrics, want 8", len(gated))
	}
}

func TestFailedChecksCountAsErrors(t *testing.T) {
	r := &runResult{reps: []repetition{iter(1, 10, nil)}, problems: []string{"bad"}}
	if r.correct() || r.failed() != 1 {
		t.Fatalf("a failed check must make the run incorrect: failed=%d", r.failed())
	}
	_, specific := r.endToEnd()
	if specific[0].name != "error_ratio" || specific[0].value != 0.1 {
		t.Errorf("error_ratio = %+v, want 1 failure in 10 attempts", specific[0])
	}
}
