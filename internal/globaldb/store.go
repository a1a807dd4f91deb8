package globaldb

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/globaldb/storage"
)

// StoreOptions configures the server's store.
type StoreOptions struct {
	// Dir is the durability directory holding the write-ahead log and
	// snapshots. Empty disables the on-disk log: mutations are applied (and,
	// when Replicated, streamed) but nothing survives a restart.
	Dir string
	// SnapshotEvery compacts after this many logged records: the store state
	// is written as a snapshot and the log truncated, bounding both recovery
	// time and log size. 0 selects the default (4096); negative disables
	// compaction.
	SnapshotEvery int
	// Replicated attaches an in-memory replication feed mirroring every
	// logged record, served on PathRepl for followers to pull.
	Replicated bool
}

// store is the server's measurement state: registered users, their
// blocked-URL reports, revocations, and the per-AS aggregation that backs
// /v1/blocked. The aggregation itself lives in the sharded state (see
// sharded.go); around it the store keeps an optional write-ahead log (Dir)
// and an optional replication feed (Replicated).
//
// With a log or a feed, every mutation request is recorded before it is
// applied: logged first, then streamed, so replaying snapshot + log tail
// reproduces the exact state — including the dedup-aware updates counter
// and the version counters behind validator tags. The log records
// requests, not effects: a no-op request (duplicate report, ingest for an
// unknown uuid) replays to the same no-op because replay preserves order.
//
// Durability is a precondition of acknowledgement: once an append or a
// compaction fails, the error is latched and every later mutation is
// rejected with errNotDurable — neither applied nor streamed — until the
// store is reopened or reset. A store with neither a log nor a feed
// applies mutations straight to memory and never builds a record.
type store struct {
	cur  atomic.Pointer[shardedState] // swapped whole by reset
	feed *storage.Feed                // nil unless Replicated
	dir  string                       // "" when there is no log

	snapshotEvery int

	mu        sync.Mutex // serializes recorded mutations with their log appends; guards the fields below
	log       *storage.Log
	sinceSnap int
	recovered int64 // log records replayed at open, observable in tests
	lastErr   error

	// Lineage recovered from (or written to) the record stream: the highest
	// term seen, the leader address it named, and the stream position it
	// began at. Zero means the stream predates promotion — the founding
	// primary's implicit term. marks keeps every leadership change in stream
	// order so termAt can name the lineage in effect at any position (valid
	// while the log holds the full history, i.e. compaction disabled — which
	// promotion worlds require anyway).
	term   int64
	leader string
	base   uint64
	marks  []TermMark
}

var (
	// errNotDurable rejects a mutation whose log append failed or follows a
	// latched durability error; the server maps it to 503.
	errNotDurable = errors.New("globaldb: write-ahead log unavailable")
	// errUnknownUser rejects an ingest for an unregistered or revoked uuid.
	errUnknownUser = errors.New("globaldb: unknown or revoked uuid")
)

// newStore opens the store described by o. With a Dir it recovers state
// from the newest snapshot plus the log tail (see recover).
func newStore(o StoreOptions) (*store, error) {
	s := &store{dir: o.Dir, snapshotEvery: o.SnapshotEvery}
	if s.snapshotEvery == 0 {
		s.snapshotEvery = defaultSnapshotEvery
	}
	if o.Replicated {
		s.feed = storage.NewFeed()
	}
	if o.Dir == "" {
		s.cur.Store(newShardedState())
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// state returns the current sharded state. Readers need no store lock: the
// sharded state's own locks make reads safe against concurrent writes, and
// reset swaps the pointer atomically.
func (s *store) state() *shardedState { return s.cur.Load() }

// recorded reports whether mutations go through the log and feed.
func (s *store) recorded() bool { return s.dir != "" || s.feed != nil }

// addUser registers a uuid (idempotent).
func (s *store) addUser(uuid string) error {
	if s.recorded() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.recordLocked(&storage.Record{Kind: storage.KindAddUser, UUID: uuid}); err != nil {
			return err
		}
		defer s.maybeCompactLocked()
	}
	s.state().addUser(uuid)
	return nil
}

// ingest folds a client's report batch in and returns how many reports it
// accepted, or errUnknownUser when the uuid is unknown or revoked. The
// updates counter is dedup-aware: only the first insertion of a
// (uuid, url|asn) key counts, so a client re-posting after a lost ack
// cannot inflate it.
func (s *store) ingest(uuid string, now time.Time, reports []Report) (int, error) {
	if s.recorded() {
		s.mu.Lock()
		defer s.mu.Unlock()
		err := s.recordLocked(&storage.Record{
			Kind: storage.KindIngest, UUID: uuid, Now: nanoOf(now),
			Reports: reportsToStorage(reports),
		})
		if err != nil {
			return 0, err
		}
		defer s.maybeCompactLocked()
	}
	n, ok := s.state().ingest(uuid, now, reports)
	if !ok {
		return 0, errUnknownUser
	}
	return n, nil
}

// revoke invalidates a uuid's vote (§5).
func (s *store) revoke(uuid string) error {
	if s.recorded() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.recordLocked(&storage.Record{Kind: storage.KindRevoke, UUID: uuid}); err != nil {
			return err
		}
		defer s.maybeCompactLocked()
	}
	s.state().revoke(uuid)
	return nil
}

// blockedForAS returns the aggregated entries for an AS, sorted by URL.
func (s *store) blockedForAS(asn int) []Entry { return s.state().blockedForAS(asn) }

// fetchResponse serves /v1/blocked for an AS, conditional on the caller's
// If-None-Match tag (inm). See fetchResult for the contract.
func (s *store) fetchResponse(asn int, inm string) fetchResult {
	return s.state().fetchResponse(asn, inm)
}

// stats aggregates the Table-7 numbers.
func (s *store) stats() Stats { return s.state().stats() }

// fetchResult is one /v1/blocked answer. When the caller's If-None-Match
// tag still names the current aggregation, notModified is set and body is
// nil: at fleet scale most sync rounds hit a converged list, and skipping
// the body skips the client-side JSON decode that otherwise dominates sync
// cost. When the tag is stale but still in the AS's recorded edit history,
// delta is set and body is a marshaled DeltaResponse carrying only the
// entries that changed since that tag (served only when it is actually
// smaller than the full body). Otherwise body is the full marshaled
// FetchResponse.
type fetchResult struct {
	body        []byte
	tag         string
	notModified bool
	delta       bool
}

// clientReport is one stored (url, asn) measurement. Records are immutable
// once created — a re-report replaces the pointer — so index readers holding
// only a read lock always see a consistent record.
type clientReport struct {
	url    string
	asn    int
	stages []WireStage
	tm     time.Time
	tp     time.Time
}
