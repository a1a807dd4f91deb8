package main

import (
	"fmt"
	"math"

	"csaw/internal/metrics"
)

// reportedPercentiles are the candidates for a timing's upper percentile,
// highest first.
var reportedPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestPercentile returns the highest reported percentile with at least
// ten samples beyond it in n samples, or 50 when even p75 has fewer.
func highestPercentile(n int) float64 {
	for _, p := range reportedPercentiles {
		// The epsilon absorbs rounding in 100-p (100-99.9 < 0.1).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile is the p-th percentile of vals by linear interpolation (the
// repo's metrics.Distribution), or NaN when vals is empty.
func percentile(vals []float64, p float64) float64 {
	d := metrics.NewDistribution()
	for _, v := range vals {
		d.Add(v)
	}
	return d.Percentile(p)
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// histPercentile is the p-th percentile of a runtime/metrics histogram,
// read as the upper bound of the bucket holding it (the lower bound for the
// open top bucket). It returns 0 for an empty histogram.
func histPercentile(counts []uint64, buckets []float64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(p / 100 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if math.IsInf(buckets[i+1], 1) {
				return buckets[i]
			}
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}

// ratio is num/den, or 0 when den is 0: a layer the workload never reaches
// reports zero work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *runResult) untraced() []repetition { return r.repetitions(false) }
func (r *runResult) traced() []repetition   { return r.repetitions(true) }

func (r *runResult) repetitions(traced bool) []repetition {
	var out []repetition
	for _, it := range r.reps {
		if it.Traced == traced {
			out = append(out, it)
		}
	}
	return out
}

func (r *runResult) ops() int {
	n := 0
	for _, it := range r.reps {
		n += it.Phase.Ops
	}
	return n
}

func (r *runResult) attempted() int {
	n := 0
	for _, it := range r.reps {
		n += it.Phase.Attempted
	}
	return n
}

// failed counts failed operations plus failed checks: a check failure is
// an error of the run like any failed call.
func (r *runResult) failed() int {
	n := len(r.problems)
	for _, it := range r.reps {
		n += it.Phase.Failed
	}
	return n
}

func (r *runResult) correct() bool { return r.failed() == 0 }

// medianOf is the median of f over its, with the count it was taken over.
func medianOf(its []repetition, f func(repetition) float64) (float64, int) {
	vals := make([]float64, len(its))
	for i, it := range its {
		vals[i] = f(it)
	}
	return median(vals), len(vals)
}

func sumOf(its []repetition, f func(repetition) float64) float64 {
	s := 0.0
	for _, it := range its {
		s += f(it)
	}
	return s
}

// pooled concatenates one sample kind over its.
func pooled(its []repetition, kind string) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, it.Phase.Samples[kind]...)
	}
	return out
}

// endToEnd reduces the untraced repetitions to the gated end-to-end
// metrics, which every workload reports, followed by the workload-specific
// ones (error ratio and latency percentiles), which are printed with their
// sample counts but not gated.
func (r *runResult) endToEnd() (gated, specific []metric) {
	its := r.untraced()
	add := func(name, unit string, f func(repetition) float64) {
		v, n := medianOf(its, f)
		gated = append(gated, metric{name, unit, v, n})
	}
	ops := func(it repetition) float64 { return float64(it.Phase.Ops) }
	add("setup_s", "s", func(it repetition) float64 { return it.Setup })
	add("wall_s", "s", func(it repetition) float64 { return it.Wall })
	add("ops_per_s", "1/s", func(it repetition) float64 { return ops(it) / it.Wall })
	add("ops_per_cpu_s", "1/s", func(it repetition) float64 { return ops(it) / it.CPU })
	add("allocs_per_op", "count", func(it repetition) float64 { return it.Mallocs / ops(it) })
	add("alloc_bytes_per_op", "B", func(it repetition) float64 { return it.AllocBytes / ops(it) })
	add("peak_heap_mb", "MB", func(it repetition) float64 { return it.PeakHeap / (1 << 20) })
	listFetches := sumOf(its, func(it repetition) float64 { return it.Phase.Counts["list-fetches"] })
	gated = append(gated, metric{"list_bytes_per_sync", "B",
		ratio(sumOf(its, func(it repetition) float64 { return it.Phase.Counts["list-bytes"] }), listFetches),
		int(listFetches)})

	attempted := sumOf(its, func(it repetition) float64 { return float64(it.Phase.Attempted) })
	failed := sumOf(its, func(it repetition) float64 { return float64(it.Phase.Failed) }) + float64(len(r.problems))
	specific = append(specific, metric{"error_ratio", "ratio", ratio(failed, attempted), int(attempted)})
	for _, s := range []struct {
		kind, name, unit string
		upper            float64
	}{
		{"sync_ms", "sync", "ms", 99},
		{"report_ms", "report", "ms", 99},
		{"plt_s", "plt", "s", 95},
	} {
		vals := pooled(its, s.kind)
		if len(vals) == 0 {
			continue
		}
		ps := []float64{50, s.upper}
		if hp := highestPercentile(len(vals)); hp != s.upper {
			ps = append(ps, hp)
		}
		for _, p := range ps {
			specific = append(specific, metric{fmt.Sprintf("%s_p%g_%s", s.name, p, s.unit), s.unit, percentile(vals, p), len(vals)})
		}
	}
	return gated, specific
}
