package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/worldgen"
)

// gdbConfig sizes the globaldb-rw workload.
type gdbConfig struct {
	ases         int
	hostsPerAS   int
	uuidsPerHost int // below globaldb.RegistrationRateLimit, so every host registers all of them
	urls         int // URL universe the reports draw from
	ops          int // API calls in the timed phase
	replEvery    int // API calls between follower pull rounds
}

// gdbDefault: 2,048 UUIDs on 512 hosts in 16 ASes, and enough calls that
// a repetition crosses several WAL snapshot compactions.
var gdbDefault = gdbConfig{ases: 16, hostsPerAS: 32, uuidsPerHost: 4, urls: 96, ops: 8000, replEvery: 500}

const (
	gdbBaseASN = 64600
	// gdbWriteShare is the share of calls that post a Report batch, far
	// above the fleet's (640 updates against 5,915 syncs at 2k clients).
	gdbWriteShare = 0.2
	gdbMaxBatch   = 4
	// gdbSnapshotEvery is the WAL compaction cadence, in records.
	gdbSnapshotEvery = 512
)

// gdbOp is one API call: a Report batch when recs is set, else a
// conditional FetchBlocked for the client's AS.
type gdbOp struct {
	client int
	recs   []localdb.Record
}

// gdbInstance is the durable replicated global DB alone: no core client,
// detector, censor, Tor or Lantern on the path. An op is one API call.
type gdbInstance struct {
	cfg     gdbConfig
	w       *worldgen.World
	dir     string
	clients []*globaldb.Client
	asn     []int // per client
	ops     []gdbOp
	probe   *netem.Host
	rec     *recorder

	head0  uint64               // replication feed head when the timed phase began
	stats0 globaldb.ClientStats // summed client stats then
	acked  []int                // ops whose Report every record of was accepted
}

func setupGlobalDB(ctx context.Context, seed int64, rec *recorder) (instance, error) {
	return newGlobalDB(ctx, seed, gdbDefault, rec)
}

func newGlobalDB(ctx context.Context, seed int64, cfg gdbConfig, rec *recorder) (g *gdbInstance, err error) {
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	_, end := rec.begin(ctx, "worldgen.build")
	w, err := worldgen.New(worldgen.Options{
		EventDriven:           true,
		Seed:                  seed,
		GlobalDBWALDir:        dir,
		GlobalDBReplicas:      2,
		GlobalDBSnapshotEvery: gdbSnapshotEvery,
	})
	end()
	if err != nil {
		return nil, err
	}
	g = &gdbInstance{cfg: cfg, w: w, dir: dir, rec: rec}
	for a := 0; a < cfg.ases; a++ {
		as := w.Net.AddAS(gdbBaseASN+a, fmt.Sprintf("bench-as-%d", a), "PK")
		for h := 0; h < cfg.hostsPerAS; h++ {
			host := w.Net.MustAddHost(fmt.Sprintf("bench-%d-%d", a, h), fmt.Sprintf("172.%d.%d.%d", 16+a, h/250, 1+h%250), "pk", as)
			if g.probe == nil {
				g.probe = host
			}
			for u := 0; u < cfg.uuidsPerHost; u++ {
				g.clients = append(g.clients, &globaldb.Client{
					Addr:       w.GlobalDBAddr,
					Replicas:   w.GlobalDBEndpoints,
					Host:       worldgen.GlobalDBHost,
					Clock:      w.Clock,
					ReportDial: rec.dialer(host.Dial),
					FetchDial:  rec.dialer(host.Dial),
				})
				g.asn = append(g.asn, gdbBaseASN+a)
			}
		}
	}

	// Registration and preload: every client reports two URLs and fetches
	// its AS's list once, so the timed phase starts on populated lists and
	// warm validator caches.
	rng := rand.New(rand.NewSource(seed))
	for i, cl := range g.clients {
		if err := cl.Register(ctx, "human-bench"); err != nil {
			return nil, err
		}
		if _, err := cl.Report(ctx, g.records(rng, g.asn[i], 2)); err != nil {
			return nil, err
		}
	}
	for i, cl := range g.clients {
		if _, err := cl.FetchBlocked(ctx, g.asn[i]); err != nil {
			return nil, err
		}
	}
	// Two pull rounds: a follower's ack rides its next pull, so the timed
	// phase starts with zero lag.
	for i := 0; i < 2; i++ {
		if err := w.SyncReplicas(ctx); err != nil {
			return nil, err
		}
	}

	g.ops = make([]gdbOp, cfg.ops)
	for i := range g.ops {
		c := rng.Intn(len(g.clients))
		g.ops[i].client = c
		if rng.Float64() < gdbWriteShare {
			g.ops[i].recs = g.records(rng, g.asn[c], 1+rng.Intn(gdbMaxBatch))
		}
	}
	return g, nil
}

// records draws n distinct blocked URLs of the universe as one report
// batch, with stage types varying by URL.
func (g *gdbInstance) records(rng *rand.Rand, asn, n int) []localdb.Record {
	stages := [][]localdb.Stage{
		{{Type: localdb.BlockDNS, Detail: "nxdomain"}},
		{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
		{{Type: localdb.BlockHTTP, Detail: "rst"}},
	}
	recs := make([]localdb.Record, n)
	for i, k := range rng.Perm(g.cfg.urls)[:n] {
		recs[i] = localdb.Record{
			URL:      fmt.Sprintf("blocked%03d.example/", k),
			ASN:      asn,
			Measured: g.w.Clock.Now(),
			Status:   localdb.Blocked,
			Stages:   stages[k%len(stages)],
		}
	}
	return recs
}

func (g *gdbInstance) clientStats() globaldb.ClientStats {
	var s globaldb.ClientStats
	for _, cl := range g.clients {
		c := cl.Stats()
		s.FetchFull += c.FetchFull
		s.FetchDelta += c.FetchDelta
		s.Fetch304 += c.Fetch304
		s.ListBytes += c.ListBytes
	}
	return s
}

// run is a closed loop of nproc callers taking calls off the op list in
// order; the caller that takes every replEvery-th call first runs a
// follower pull round.
func (g *gdbInstance) run(ctx context.Context) (*phase, error) {
	g.head0 = g.w.GlobalDB.ReplicationFeed().Head()
	g.stats0 = g.clientStats()
	type caller struct {
		syncMS, reportMS []float64
		acked            []int
		failed           int
		maxLag           uint64
		err              error
	}
	callers := make([]caller, runtime.NumCPU())
	var next atomic.Int64
	var replMu sync.Mutex
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(g.ops) {
					return
				}
				if i > 0 && i%g.cfg.replEvery == 0 {
					replMu.Lock()
					c.maxLag = max(c.maxLag, g.w.ReplicationLag().MaxLag)
					pctx, end := g.rec.begin(ctx, "replica.pull")
					err := g.w.SyncReplicas(pctx)
					end()
					replMu.Unlock()
					if err != nil && c.err == nil {
						c.err = fmt.Errorf("replica pull: %w", err)
					}
				}
				op := g.ops[i]
				cl := g.clients[op.client]
				if op.recs == nil {
					octx, end := g.rec.begin(ctx, "globaldb.fetch")
					t := time.Now()
					_, err := cl.FetchBlocked(octx, g.asn[op.client])
					c.syncMS = append(c.syncMS, msSince(t))
					end()
					if err != nil {
						c.failed++
					}
					continue
				}
				octx, end := g.rec.begin(ctx, "globaldb.report")
				t := time.Now()
				n, err := cl.Report(octx, op.recs)
				c.reportMS = append(c.reportMS, msSince(t))
				end()
				if err != nil || n != len(op.recs) {
					c.failed++
				} else {
					c.acked = append(c.acked, i)
				}
			}
		}(&callers[k])
	}
	wg.Wait()

	ph := newPhase()
	ph.Ops, ph.Attempted = len(g.ops), len(g.ops)
	for _, c := range callers {
		if c.err != nil {
			return nil, c.err
		}
		ph.Failed += c.failed
		ph.Samples["sync_ms"] = append(ph.Samples["sync_ms"], c.syncMS...)
		ph.Samples["report_ms"] = append(ph.Samples["report_ms"], c.reportMS...)
		ph.MaxLag = max(ph.MaxLag, float64(c.maxLag))
		g.acked = append(g.acked, c.acked...)
	}
	return ph, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// check quiesces replication (a follower's ack rides its next pull, so two
// rounds) and verifies that every acked report is listed for its AS, that
// no follower lags, and that every node serves identical list bodies and
// validator tags.
func (g *gdbInstance) check(ctx context.Context, ph *phase) error {
	s := g.clientStats()
	ph.Counts["list-full"] = float64(s.FetchFull - g.stats0.FetchFull)
	ph.Counts["list-delta"] = float64(s.FetchDelta - g.stats0.FetchDelta)
	ph.Counts["list-304"] = float64(s.Fetch304 - g.stats0.Fetch304)
	ph.Counts["list-fetches"] = ph.Counts["list-full"] + ph.Counts["list-delta"] + ph.Counts["list-304"]
	ph.Counts["list-bytes"] = float64(s.ListBytes - g.stats0.ListBytes)
	ph.Counts["reports-acked"] = float64(len(g.acked))
	feed := g.w.GlobalDB.ReplicationFeed()
	for from := g.head0; from < feed.Head(); {
		data, next := feed.ReadFrom(from, 1<<20)
		ph.Counts["wal-bytes"] += float64(len(data))
		from = next
	}

	for i := 0; i < 2; i++ {
		if err := g.w.SyncReplicas(ctx); err != nil {
			return fmt.Errorf("quiesce: %w", err)
		}
	}
	if lag := g.w.ReplicationLag().MaxLag; lag != 0 {
		ph.Problems = append(ph.Problems, fmt.Sprintf("follower lag %d records after quiesce", lag))
	}
	listed := make(map[int]map[string]bool)
	for a := 0; a < g.cfg.ases; a++ {
		asn := gdbBaseASN + a
		listed[asn] = make(map[string]bool)
		for _, e := range g.w.GlobalDB.BlockedForAS(asn) {
			listed[asn][e.URL] = true
		}
	}
	missing := 0
	for _, i := range g.acked {
		for _, r := range g.ops[i].recs {
			if !listed[r.ASN][r.URL] {
				missing++
			}
		}
	}
	if missing > 0 {
		ph.Problems = append(ph.Problems, fmt.Sprintf("%d acked reports not listed for their AS", missing))
	}

	hc := &httpx.Client{Dial: g.probe.Dial, Clock: g.w.Clock}
	for a := 0; a < g.cfg.ases; a++ {
		target := fmt.Sprintf("%s?asn=%d", globaldb.PathFetch, gdbBaseASN+a)
		var body0 []byte
		var tag0 string
		for k, ep := range g.w.GlobalDBEndpoints {
			resp, err := hc.Get(ctx, ep, worldgen.GlobalDBHost, target)
			if err != nil {
				return fmt.Errorf("list from %s: %w", ep, err)
			}
			if resp.StatusCode != 200 {
				ph.Problems = append(ph.Problems, fmt.Sprintf("%s%s: status %d", ep, target, resp.StatusCode))
				continue
			}
			if k == 0 {
				body0, tag0 = resp.Body, resp.Header.Get("ETag")
			} else if !bytes.Equal(resp.Body, body0) || resp.Header.Get("ETag") != tag0 {
				ph.Problems = append(ph.Problems, fmt.Sprintf("%s%s: body or tag differs from the primary's", ep, target))
			}
		}
	}
	return nil
}

func (g *gdbInstance) close() error {
	err := g.w.GlobalDB.Close()
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}
