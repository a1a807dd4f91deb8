package main

import (
	"context"
	"testing"

	"csaw/internal/fleet"
)

// The tests below run each workload at a small size and check its op
// accounting: what counts as an op, and that every op is attempted once.

func TestFleetOpIsOnePlannedFetch(t *testing.T) {
	ctx := context.Background()
	f, err := newFleet(ctx, fleet.Workload{Population: 40, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := f.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Ops != f.plan.Fetches || ph.Counts["fetches"] != float64(f.plan.Fetches) {
		t.Errorf("ops %d, fetches counted %g, plan %d", ph.Ops, ph.Counts["fetches"], f.plan.Fetches)
	}
	if ph.Attempted <= ph.Ops || ph.Failed != 0 || len(ph.Problems) != 0 {
		t.Errorf("attempted %d (fetches + syncs), failed %d, problems %v", ph.Attempted, ph.Failed, ph.Problems)
	}
}

func TestGlobalDBOpIsOneAPICall(t *testing.T) {
	workDir = t.TempDir()
	ctx := context.Background()
	rec := newRecorder()
	cfg := gdbConfig{ases: 2, hostsPerAS: 2, uuidsPerHost: 2, urls: 8, ops: 120, replEvery: 25}
	g, err := newGlobalDB(ctx, 5, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	rec.dials.Store(0)
	ph, err := g.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check(ctx, ph); err != nil {
		t.Fatal(err)
	}
	calls := len(ph.Samples["sync_ms"]) + len(ph.Samples["report_ms"])
	if ph.Ops != cfg.ops || ph.Attempted != cfg.ops || calls != cfg.ops {
		t.Errorf("ops %d, attempted %d, timed calls %d; want %d each", ph.Ops, ph.Attempted, calls, cfg.ops)
	}
	if rec.dials.Load() != int64(cfg.ops) {
		t.Errorf("%d dials for %d calls; each call dials once", rec.dials.Load(), cfg.ops)
	}
	if got := ph.Counts["reports-acked"]; got != float64(len(ph.Samples["report_ms"])) || ph.Counts["wal-bytes"] <= 0 {
		t.Errorf("acked reports %g of %d, WAL bytes %g", got, len(ph.Samples["report_ms"]), ph.Counts["wal-bytes"])
	}
	if ph.Failed != 0 || len(ph.Problems) != 0 {
		t.Errorf("failed %d, problems %v", ph.Failed, ph.Problems)
	}
}

func TestLadderOpIsOnePageLoad(t *testing.T) {
	ctx := context.Background()
	l, err := newLadder(ctx, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	ph, err := l.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check(ctx, ph); err != nil {
		t.Fatal(err)
	}
	pages := len(l.cycles[0])
	if want := pages + len(approachNames); ph.Ops != want || ph.Attempted != want {
		t.Errorf("ops %d, attempted %d; want %d C-Saw loads + %d approach loads", ph.Ops, ph.Attempted, pages, len(approachNames))
	}
	if len(ph.Samples["plt_s"]) != pages {
		t.Errorf("%d C-Saw PLT samples, want %d", len(ph.Samples["plt_s"]), pages)
	}
	for _, a := range approachNames {
		if len(ph.Samples["approach."+a]) != 1 {
			t.Errorf("approach %s: %d samples, want 1", a, len(ph.Samples["approach."+a]))
		}
	}
	if ph.Failed != 0 {
		t.Errorf("failed %d, problems %v", ph.Failed, ph.Problems)
	}
}

func TestLadderCheckHoldsThePaperOrdering(t *testing.T) {
	ph := newPhase()
	ph.Samples["open_plt_s"] = []float64{3}
	ph.Samples["approach.lantern"] = []float64{2}
	ph.Samples["approach.tor"] = []float64{4}
	if err := (&ladderInstance{}).check(context.Background(), ph); err != nil {
		t.Fatal(err)
	}
	if len(ph.Problems) != 1 {
		t.Errorf("C-Saw slower than Lantern must fail the check; problems %v", ph.Problems)
	}
}
