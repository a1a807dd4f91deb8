package globaldb

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// --- The BENCH_globaldb.json emitter ------------------------------------
//
// The global-DB trajectory: the server-side cost of one fleet sync round
// (BenchmarkFleetSyncRound, gated on an absolute allocation and time
// budget), recovery cost vs log length (does the WAL+snapshot design keep
// restart cheap), bytes/sync full-vs-delta as the URL universe grows (does
// versioned delta sync keep the client's steady-state traffic flat, §5's
// scaling concern), and the virtual-time cost of failing over from a
// blackholed primary to a follower replica. `make bench-globaldb` runs
// TestEmitBenchGlobalDB with CSAW_BENCH_GLOBALDB_OUT set; CI uploads the
// document alongside BENCH_fleet.json, and the job fails when the sync
// round exceeds its budget or a converged list's delta payload exceeds 20%
// of the full body.

// deltaRatioGate is the acceptance gate: on a converged list, one drifted
// entry must cost at most this fraction of a full-list download.
const deltaRatioGate = 0.20

type syncRoundPoint struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	NsBudget     float64 `json:"ns_per_op_budget"`
	AllocsBudget int64   `json:"allocs_per_op_budget"`
}

type recoveryPoint struct {
	// LogRecords is the number of mutations written before the restart.
	LogRecords int64 `json:"log_records"`
	// Compacted marks the snapshot-cadence control: same mutation count,
	// default compaction instead of an unbounded tail.
	Compacted bool `json:"compacted"`
	// Replayed is how many log records recovery actually replayed (the
	// tail past the newest snapshot).
	Replayed int64 `json:"replayed_records"`
	// RecoveryMs is the wall-clock open time of the restarted store.
	RecoveryMs float64 `json:"recovery_ms"`
}

type deltaSyncPoint struct {
	Universe       int     `json:"universe"`
	FullBytes      int     `json:"full_bytes"`
	MeanDeltaBytes float64 `json:"mean_delta_bytes"`
	Ratio          float64 `json:"delta_full_ratio"`
	Rounds         int     `json:"drift_rounds"`
}

type failoverPoint struct {
	// VirtualSeconds is the virtual time from issuing a sync against a
	// blackholed primary to the first successful follower-served response —
	// dominated by the client timeout that detects the silent drop.
	VirtualSeconds float64 `json:"virtual_seconds"`
	TimeoutSeconds float64 `json:"timeout_seconds"`
	ServedBy       string  `json:"served_by"`
	// Fetch304 records whether the primary's cached validator tag was
	// answered 304 by the follower (converged replicas share tags, so a
	// failover sync moves zero list bytes).
	Fetch304 bool `json:"fetch_304"`
}

// benchGlobalDBDoc is the emitted schema. Schema 2 adds sync_round, the
// budgeted sync-round cost that moved here from BENCH_fleet.json.
type benchGlobalDBDoc struct {
	Schema         int              `json:"schema"`
	Generated      string           `json:"generated"`
	SyncRound      syncRoundPoint   `json:"sync_round"`
	Recovery       []recoveryPoint  `json:"recovery"`
	DeltaSync      []deltaSyncPoint `json:"delta_sync"`
	DeltaRatioGate float64          `json:"delta_ratio_gate"`
	Failover       failoverPoint    `json:"failover"`
}

// benchRecoveryPoint writes records mutations into a fresh WAL store, kills
// it, and times the reopen. snapshotEvery < 0 keeps the whole history in
// the tail (recovery cost scales with the log); 0 uses the default cadence
// (recovery cost is bounded by snapshot + short tail regardless of history).
func benchRecoveryPoint(t *testing.T, records int64, snapshotEvery int) recoveryPoint {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	o := StoreOptions{Dir: dir, SnapshotEvery: snapshotEvery}
	s, err := newStore(o)
	if err != nil {
		t.Fatalf("open wal store: %v", err)
	}
	mustAddUser(t, s, "bench-writer")
	for i := int64(1); i < records; i++ { // addUser wrote record 0
		if _, err := s.ingest("bench-writer", utc, []Report{{
			URL: fmt.Sprintf("u%06d.example/", i), ASN: 100 + int(i)%16,
			Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: utc,
		}}); err != nil {
			t.Fatalf("bench ingest rejected: %v", err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatalf("close wal store: %v", err)
	}

	start := time.Now() //lint:allow-realtime benchmark measures real recovery time by design
	re, err := newStore(o)
	if err != nil {
		t.Fatalf("reopen wal store: %v", err)
	}
	elapsed := time.Since(start) //lint:allow-realtime see above
	p := recoveryPoint{
		LogRecords: records,
		Compacted:  snapshotEvery >= 0,
		Replayed:   re.recovered,
		RecoveryMs: float64(elapsed.Microseconds()) / 1000,
	}
	if body := re.fetchResponse(100, "").body; len(body) == 0 {
		t.Error("recovered store serves an empty body")
	}
	if err := re.close(); err != nil {
		t.Fatal(err)
	}
	if !p.Compacted && p.Replayed != records {
		t.Errorf("uncompacted recovery replayed %d records, want the full %d-record log", p.Replayed, records)
	}
	if p.Compacted && p.Replayed >= records {
		t.Errorf("compacted recovery replayed %d of %d records: compaction never truncated the log", p.Replayed, records)
	}
	return p
}

// benchDeltaPoint converges a universe-sized list from one seeder batch
// (one batch keeps the seeder's vote weight 1/d fixed, so later drift from
// fresh reporters changes exactly one entry per round), then measures the
// mean conditional-fetch payload over driftRounds single-entry drifts.
func benchDeltaPoint(t *testing.T, universe, driftRounds int) deltaSyncPoint {
	t.Helper()
	s := openStore(t, StoreOptions{})
	const asn = 100
	mustAddUser(t, s, "seeder")
	batch := make([]Report, universe)
	for i := range batch {
		batch[i] = Report{
			URL: fmt.Sprintf("u%06d.example/", i), ASN: asn,
			Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: utc,
		}
	}
	if n, err := s.ingest("seeder", utc, batch); err != nil || n != universe {
		t.Fatalf("seeding %d URLs: accepted %d, err %v", universe, n, err)
	}

	first := s.fetchResponse(asn, "")
	full, tag := first.body, first.tag
	if first.delta || len(full) == 0 || tag == "" {
		t.Fatalf("initial fetch: %d bytes, tag %q, delta %v — want a tagged full body", len(full), tag, first.delta)
	}

	deltaBytes := 0
	for r := 0; r < driftRounds; r++ {
		drifter := fmt.Sprintf("drifter-%03d", r)
		mustAddUser(t, s, drifter)
		if n, err := s.ingest(drifter, utc, []Report{{
			URL: fmt.Sprintf("drift%03d.example/", r), ASN: asn,
			Stages: []WireStage{{Type: 3, Detail: "blockpage"}}, Tm: utc,
		}}); err != nil || n != 1 {
			t.Fatalf("drift round %d: accepted %d, err %v", r, n, err)
		}
		fr := s.fetchResponse(asn, tag)
		if !fr.delta {
			t.Fatalf("drift round %d at universe %d: conditional fetch fell back to a full body (%d bytes)",
				r, universe, len(fr.body))
		}
		deltaBytes += len(fr.body)
		tag = fr.tag
	}
	mean := float64(deltaBytes) / float64(driftRounds)
	return deltaSyncPoint{
		Universe: universe, FullBytes: len(full),
		MeanDeltaBytes: mean, Ratio: mean / float64(len(full)),
		Rounds: driftRounds,
	}
}

// benchFailover reuses the failover world (three converged replicas, a
// client with the full replica set) and measures the virtual time a sync
// takes when the censor has just blackholed the primary: detection is one
// client timeout, then the follower answers the same call.
func benchFailover(t *testing.T) failoverPoint {
	t.Helper()
	n, servers, mk := failoverWorld(t)
	c := mk("bench-user", "10.0.0.9")
	ctx := context.Background()
	if _, err := c.FetchBlocked(ctx, 100); err != nil {
		t.Fatalf("warm fetch: %v", err)
	}

	servers[0].Faults().SetDrop(true)
	servers[0].Faults().SetOutage(true)
	start := n.Clock().Now()
	if _, err := c.FetchBlocked(ctx, 100); err != nil {
		t.Fatalf("failover fetch: %v", err)
	}
	elapsed := n.Clock().Now().Sub(start)
	st := c.Stats()
	if st.Failovers != 1 || st.ReplicaDown != 1 {
		t.Errorf("failover stats = %+v, want exactly one failover and one down transition", st)
	}
	return failoverPoint{
		VirtualSeconds: elapsed.Seconds(),
		TimeoutSeconds: c.Timeout.Seconds(),
		ServedBy:       c.LastServed(),
		Fetch304:       st.Fetch304 == 1, // the follower answered the cached tag 304
	}
}

// TestEmitBenchGlobalDB writes BENCH_globaldb.json when
// CSAW_BENCH_GLOBALDB_OUT is set (`make bench-globaldb`) and enforces the
// acceptance gates: one sync round stays within syncRoundAllocsBudget
// allocations and syncRoundNsBudget nanoseconds, and at every measured
// universe size the mean delta payload stays at or under 20% of the
// full-list body. CI uploads the document alongside BENCH_fleet.json.
func TestEmitBenchGlobalDB(t *testing.T) {
	out := os.Getenv("CSAW_BENCH_GLOBALDB_OUT")
	if out == "" {
		t.Skip("set CSAW_BENCH_GLOBALDB_OUT=BENCH_globaldb.json to emit the benchmark document")
	}

	var doc benchGlobalDBDoc
	doc.Schema = 2
	doc.Generated = time.Now().UTC().Format(time.RFC3339) //lint:allow-realtime artifact timestamp for the operator
	doc.DeltaRatioGate = deltaRatioGate

	sr := testing.Benchmark(BenchmarkFleetSyncRound)
	doc.SyncRound = syncRoundPoint{
		NsPerOp: float64(sr.NsPerOp()), AllocsPerOp: sr.AllocsPerOp(), BytesPerOp: sr.AllocedBytesPerOp(),
		NsBudget: syncRoundNsBudget, AllocsBudget: syncRoundAllocsBudget,
	}
	if doc.SyncRound.AllocsPerOp > syncRoundAllocsBudget {
		t.Errorf("sync round allocates %d times per op, over the %d budget", doc.SyncRound.AllocsPerOp, syncRoundAllocsBudget)
	}
	if doc.SyncRound.NsPerOp > syncRoundNsBudget {
		t.Errorf("sync round takes %.0f ns/op, over the %d ns budget", doc.SyncRound.NsPerOp, syncRoundNsBudget)
	}

	for _, records := range []int64{1_000, 10_000, 100_000} {
		doc.Recovery = append(doc.Recovery, benchRecoveryPoint(t, records, -1))
	}
	// The compaction control: same longest history, default snapshot
	// cadence — recovery replays snapshot + short tail, not the log.
	doc.Recovery = append(doc.Recovery, benchRecoveryPoint(t, 100_000, 0))

	for _, universe := range []int{1_000, 10_000, 100_000} {
		p := benchDeltaPoint(t, universe, 5)
		doc.DeltaSync = append(doc.DeltaSync, p)
		if p.Ratio > deltaRatioGate {
			t.Errorf("delta/full ratio %.4f at universe %d exceeds the %.0f%% acceptance gate",
				p.Ratio, p.Universe, deltaRatioGate*100)
		}
	}

	doc.Failover = benchFailover(t)
	if doc.Failover.VirtualSeconds > 2*doc.Failover.TimeoutSeconds {
		t.Errorf("failover took %.1f virtual seconds against a %.1fs client timeout: more than one timeout window",
			doc.Failover.VirtualSeconds, doc.Failover.TimeoutSeconds)
	}

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	t.Logf("sync round: %.0f ns/op, %d allocs/op, %d B/op",
		doc.SyncRound.NsPerOp, doc.SyncRound.AllocsPerOp, doc.SyncRound.BytesPerOp)
	for _, p := range doc.Recovery {
		t.Logf("recovery: %6d records (compacted=%v) → replayed %6d in %8.2fms",
			p.LogRecords, p.Compacted, p.Replayed, p.RecoveryMs)
	}
	for _, p := range doc.DeltaSync {
		t.Logf("delta: universe %6d → full %8d B, mean delta %6.0f B, ratio %.4f",
			p.Universe, p.FullBytes, p.MeanDeltaBytes, p.Ratio)
	}
	t.Logf("failover: %.1f virtual s (timeout %.1fs), served by %s, 304=%v",
		doc.Failover.VirtualSeconds, doc.Failover.TimeoutSeconds, doc.Failover.ServedBy, doc.Failover.Fetch304)
}
