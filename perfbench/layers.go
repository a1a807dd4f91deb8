package main

// approachNames are the approaches the case-study client carries
// (worldgen's full toolbox), in report order.
var approachNames = []string{
	"public-dns", "https", "domain-fronting", "ip-as-hostname",
	"tor", "tor-bridge", "lantern", "proxy-Netherlands",
}

// median0 is the median of vals, or 0 when a workload produced none.
func median0(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// layerMetrics reduces a traced run to the per-layer metrics. Profile and
// span figures come from the traced repetitions, runtime scheduler and GC
// figures from the untraced ones (no profiler in the way), counters and
// per-approach PLTs from all of them.
func (r *runResult) layerMetrics() []metric {
	tr, un, all := r.traced(), r.untraced(), r.reps
	ops := func(it repetition) float64 { return float64(it.Phase.Ops) }
	trOps, unOps, allOps := sumOf(tr, ops), sumOf(un, ops), sumOf(all, ops)
	var out []metric
	add := func(name, unit string, v float64, n int) { out = append(out, metric{name, unit, v, n}) }

	for _, l := range layers {
		cpu := sumOf(tr, func(it repetition) float64 { return it.CPULayers[l].B })
		objs := sumOf(tr, func(it repetition) float64 { return it.AllocLayers[l].A })
		bytes := sumOf(tr, func(it repetition) float64 { return it.AllocLayers[l].B })
		add(l+".self_cpu_us_per_op", "us", ratio(cpu/1e3, trOps), len(tr))
		add(l+".allocs_per_op", "count", ratio(objs, trOps), len(tr))
		add(l+".alloc_bytes_per_op", "B", ratio(bytes, trOps), len(tr))
	}

	var sched []uint64
	var buckets []float64
	peakG := 0.0
	for _, it := range un {
		if sched == nil {
			sched, buckets = make([]uint64, len(it.RT.SchedCounts)), it.RT.SchedBuckets
		}
		for i, c := range it.RT.SchedCounts {
			sched[i] += c
		}
		peakG = max(peakG, it.Goroutines)
	}
	add("runtime.gc_cpu_share", "ratio", ratio(sumOf(un, func(it repetition) float64 { return it.RT.GCCPU }),
		sumOf(un, func(it repetition) float64 { return it.RT.UsedCPU })), len(un))
	add("runtime.gc_cycles_per_kop", "count", ratio(1e3*sumOf(un, func(it repetition) float64 { return it.RT.GCCycles }), unOps), len(un))
	add("runtime.sched_wait_p99_us", "us", 1e6*histPercentile(sched, buckets, 99), len(un))
	add("runtime.mutex_wait_us_per_op", "us", ratio(1e6*sumOf(un, func(it repetition) float64 { return it.RT.MutexWait }), unOps), len(un))
	add("runtime.goroutines_peak", "count", peakG, len(un))

	c := func(k string) float64 { return sumOf(all, func(it repetition) float64 { return it.Phase.Counts[k] }) }
	n := len(all)
	add("core.circum_share", "ratio", ratio(c("served-circum"), c("fetches")), int(c("fetches")))
	add("core.copies_per_circum", "ratio", ratio(c("circum-copy-sent"), c("served-circum")), int(c("served-circum")))
	add("detect.phase2_per_fetch", "ratio", ratio(c("phase2-confirm"), c("fetches")), int(c("fetches")))
	add("censor.events_per_op", "count", ratio(c("censor-events"), allOps), int(allOps))
	add("globaldb.full_share", "ratio", ratio(c("list-full"), c("list-fetches")), int(c("list-fetches")))
	add("globaldb.delta_share", "ratio", ratio(c("list-delta"), c("list-fetches")), int(c("list-fetches")))
	add("globaldb.not_modified_share", "ratio", ratio(c("list-304"), c("list-fetches")), int(c("list-fetches")))
	add("storage.wal_bytes_per_report", "B", ratio(c("wal-bytes"), c("reports-acked")), int(c("reports-acked")))
	maxLag := 0.0
	for _, it := range all {
		maxLag = max(maxLag, it.Phase.MaxLag)
	}
	add("replica.max_lag_records", "records", maxLag, n)
	add("trace.sampled_share", "ratio", ratio(c("trace-sampled"), c("trace-started")), int(c("trace-started")))
	add("vtime.virtual_per_wall", "ratio", ratio(sumOf(all, func(it repetition) float64 { return it.Phase.Virtual.Seconds() }),
		sumOf(all, func(it repetition) float64 { return it.Wall })), n)

	spans := func(name string) []float64 {
		var out []float64
		for _, it := range tr {
			for _, s := range it.Spans {
				if s.Name == name {
					out = append(out, s.End-s.Start)
				}
			}
		}
		return out
	}
	for _, s := range []struct {
		metric, span, unit string
		scale              float64
	}{
		{"replica.pull_ms_p50", "replica.pull", "ms", 1e3},
		{"worldgen.build_s", "worldgen.build", "s", 1},
		{"fleet.plan_s", "fleet.plan", "s", 1},
		{"netem.dial_us_p50", "netem.dial", "us", 1e6},
		{"dnsx.lookup_us_p50", "dnsx.lookup", "us", 1e6},
	} {
		d := spans(s.span)
		add(s.metric, s.unit, s.scale*median0(d), len(d))
	}
	add("netem.dials_per_op", "count", ratio(sumOf(tr, func(it repetition) float64 { return it.Dials }), trOps), len(tr))
	add("netem.wire_bytes_per_op", "B", ratio(sumOf(tr, func(it repetition) float64 { return it.Wire }), trOps), len(tr))

	for _, a := range approachNames {
		v := pooled(all, "approach."+a)
		add("approach."+a+".plt_p50_s", "s", median0(v), len(v))
	}

	wall := func(it repetition) float64 { return it.Wall }
	perCPU := func(it repetition) float64 { return ops(it) / it.CPU }
	trWall, _ := medianOf(tr, wall)
	unWall, _ := medianOf(un, wall)
	trCPU, _ := medianOf(tr, perCPU)
	unCPU, _ := medianOf(un, perCPU)
	add("trace.overhead_wall_s", "s", trWall-unWall, len(tr))
	add("trace.overhead_ops_per_cpu_s", "1/s", trCPU-unCPU, len(tr))
	return out
}
