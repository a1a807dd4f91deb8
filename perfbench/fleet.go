package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"

	"csaw/internal/fleet"
	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// fleetPopulation sizes the fleet workload: thousands of clients, about
// 8k planned fetches and 6k syncs per repetition.
const fleetPopulation = 2000

// fleetInstance is one built fleet world with its plan. An op is one
// planned URL fetch.
type fleetInstance struct {
	w    *worldgen.World
	sc   *worldgen.FleetScenario
	plan *fleet.Plan
	rec  *recorder
}

func setupFleet(ctx context.Context, seed int64, rec *recorder) (instance, error) {
	return newFleet(ctx, fleet.Workload{Population: fleetPopulation, Seed: seed}, rec)
}

// newFleet builds the world and plan for a default-shaped workload (Zipf
// popularity, diurnal sessions, churn, 12 ISPs) on the event clock.
func newFleet(ctx context.Context, wl fleet.Workload, rec *recorder) (*fleetInstance, error) {
	wl = wl.WithDefaults()
	_, end := rec.begin(ctx, "worldgen.build")
	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: wl.Seed})
	var sc *worldgen.FleetScenario
	if err == nil {
		sc, err = w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	}
	end()
	if err != nil {
		return nil, err
	}
	_, end = rec.begin(ctx, "fleet.plan")
	plan := fleet.BuildPlan(wl)
	end()
	return &fleetInstance{w: w, sc: sc, plan: plan, rec: rec}, nil
}

func (f *fleetInstance) run(ctx context.Context) (*phase, error) {
	opts := fleet.Options{Workers: runtime.NumCPU()}
	var tr *trace.Tracer
	if f.rec != nil {
		tr = trace.New(f.w.Clock, trace.NewStreamSink(io.Discard), trace.WithSampling(trace.DefaultSampleN))
		opts.Trace = tr
	}
	v0 := f.w.Clock.Now()
	ctx, end := f.rec.begin(ctx, "fleet.run")
	res, err := fleet.Run(ctx, f.w, f.sc, f.plan, opts)
	end()
	if err != nil {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	m := res.Measured
	ph := newPhase()
	ph.Virtual = f.w.Clock.Since(v0)
	ph.Ops = m.Fetches
	ph.Attempted = m.Fetches + m.Syncs
	ph.Failed = m.FetchErrors + m.SyncErrors
	if !res.Summary.Consistent() {
		ph.Problems = append(ph.Problems, "fleet summary: global-DB per-AS lists diverge from the plan expectation")
	}
	if m.Fetches != f.plan.Fetches {
		ph.Problems = append(ph.Problems, fmt.Sprintf("fleet ran %d fetches, plan has %d", m.Fetches, f.plan.Fetches))
	}
	h := fnv.New64a()
	io.WriteString(h, res.Summary.Render())
	ph.Note = fmt.Sprintf("fleet seed %d: %d clients, %d fetches, %d syncs, summary hash %016x",
		f.plan.Workload.Seed, len(f.plan.Clients), m.Fetches, m.Syncs, h.Sum64())

	d := m.DeltaSync()
	for k, v := range map[string]int{
		"fetches":          m.Fetches,
		"served-circum":    m.Counters["served-circum"],
		"circum-copy-sent": m.Counters["circum-copy-sent"],
		"phase2-confirm":   m.Counters["phase2-confirm"],
		"list-bytes":       d.ListBytes,
		"list-full":        d.FetchFull,
		"list-delta":       d.FetchDelta,
		"list-304":         d.Fetch304,
		"list-fetches":     d.FetchFull + d.FetchDelta + d.Fetch304,
	} {
		ph.Counts[k] = float64(v)
	}
	for _, isp := range f.sc.ISPs {
		ph.Counts["censor-events"] += float64(isp.Censor.Stats.Total())
	}
	if tr != nil {
		started, sampled := tr.Stats()
		ph.Counts["trace-started"], ph.Counts["trace-sampled"] = float64(started), float64(sampled)
	}
	return ph, nil
}

// check is a no-op: the fleet's checks need the run result and are made
// in run.
func (f *fleetInstance) check(context.Context, *phase) error { return nil }

func (f *fleetInstance) close() error { return nil }
