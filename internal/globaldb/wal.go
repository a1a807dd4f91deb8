package globaldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"csaw/internal/globaldb/storage"
)

const (
	defaultSnapshotEvery = 4096
	walFileName          = "wal.log"
	snapshotFileName     = "snapshot"
)

// recover opens (or creates) the store at s.dir, rebuilding state from the
// newest snapshot plus the log tail. A corrupt log tail (torn write from a
// crash) is truncated at the last valid record; any other error aborts the
// open. Runs before the store is shared.
func (s *store) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	snap, err := storage.ReadSnapshot(s.snapPath())
	if err != nil {
		return fmt.Errorf("globaldb: recover snapshot: %w", err)
	}
	st := newShardedState()
	if snap != nil {
		st = newShardedFromState(snap)
	}
	s.cur.Store(st)
	// With no snapshot the log is the complete history, so the replication
	// feed can be rebuilt record for record and followers' pull offsets stay
	// valid across a restart. Once a snapshot exists the prefix is gone and a
	// restarted primary's feed restarts at zero (promotion worlds disable
	// compaction for exactly this reason).
	rebuildFeed := s.feed != nil && snap == nil
	good, err := storage.ReplayFile(s.walPath(), func(rec *storage.Record) error {
		if rec.Kind == storage.KindTerm {
			s.markTermLocked(rec.Now, rec.UUID, uint64(s.recovered))
		}
		applyRecord(st, rec)
		if rebuildFeed {
			s.feed.Append(rec)
		}
		s.recovered++
		return nil
	})
	if err != nil && !errors.Is(err, storage.ErrCorrupt) {
		return fmt.Errorf("globaldb: replay wal: %w", err)
	}
	torn := err != nil
	s.log, err = storage.OpenLog(s.walPath())
	if err != nil {
		return err
	}
	if torn {
		if err := s.log.Truncate(good); err != nil {
			closeErr := s.log.Close()
			return fmt.Errorf("globaldb: truncate torn wal: %v (close: %v)", err, closeErr)
		}
	}
	s.sinceSnap = int(s.recovered)
	return nil
}

func (s *store) walPath() string  { return filepath.Join(s.dir, walFileName) }
func (s *store) snapPath() string { return filepath.Join(s.dir, snapshotFileName) }

// applyRecord replays one logged mutation through the normal state paths.
// Shared by WAL recovery and follower replication, so a replica converges
// to the primary's exact state (ingest return values are meaningless during
// replay — the original caller is long gone).
func applyRecord(st *shardedState, rec *storage.Record) {
	switch rec.Kind {
	case storage.KindAddUser:
		st.addUser(rec.UUID)
	case storage.KindIngest:
		st.ingest(rec.UUID, timeOf(rec.Now), reportsFromStorage(rec.Reports))
	case storage.KindRevoke:
		st.revoke(rec.UUID)
	case storage.KindTerm:
		// Leadership marker: no state mutation. The store tracks lineage
		// itself before the record gets here.
	}
}

// recordLocked logs one mutation before the caller applies it, then mirrors
// it to the feed. The log write comes first: a record must never enter the
// replication stream unless it is durable locally, or a crashed primary
// could restart without records its followers hold. A failed append
// latches the error and rejects this and every later mutation with
// errNotDurable; the caller must not apply or acknowledge it. Caller holds
// s.mu.
func (s *store) recordLocked(rec *storage.Record) error {
	if s.lastErr != nil {
		return errNotDurable
	}
	if s.log != nil {
		if err := s.log.Append(rec); err != nil {
			s.lastErr = err
			return errNotDurable
		}
		s.sinceSnap++
	}
	if s.feed != nil {
		s.feed.Append(rec)
	}
	return nil
}

// absorb logs, streams, and applies one record exactly as received. It is
// the follower-side counterpart of the mutation methods: replication and
// push reconciliation hand records here so a follower's WAL and feed mirror
// the leader's stream frame for frame (EncodeRecord is a pure function, so
// re-encoding reproduces identical bytes). Term records update the lineage
// instead of the state.
func (s *store) absorb(rec *storage.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var base uint64
	if s.feed != nil {
		base = s.feed.Head() // position the record lands at, if it does
	}
	if err := s.recordLocked(rec); err != nil {
		return err
	}
	if rec.Kind == storage.KindTerm {
		s.markTermLocked(rec.Now, rec.UUID, base)
	}
	applyRecord(s.state(), rec)
	s.maybeCompactLocked()
	return nil
}

// reset wipes the store to empty — log truncated, snapshot removed, feed,
// state and lineage fresh, latched errors cleared — so the node can resync
// a new leader's stream from sequence zero. Replaying that stream rebuilds
// not just the aggregate state but the exact version counters behind
// validator tags, which is what makes replicas byte-identical after a heal.
func (s *store) reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		if err := s.log.Truncate(0); err != nil {
			return err
		}
	}
	if s.dir != "" {
		if err := os.Remove(s.snapPath()); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	fresh := newShardedState()
	fresh.histMax.Store(s.state().histMax.Load())
	s.cur.Store(fresh)
	if s.feed != nil {
		s.feed.Reset()
	}
	s.sinceSnap = 0
	s.recovered = 0
	s.lastErr = nil
	s.term, s.leader, s.base = 0, "", 0
	s.marks = nil
	return nil
}

// maybeCompactLocked compacts when the log grew past the snapshot cadence.
// Called after the triggering mutation has been applied — compacting from
// recordLocked would snapshot state that misses the mutation whose record
// the truncation is about to drop. Caller holds s.mu.
func (s *store) maybeCompactLocked() {
	if s.log == nil || s.lastErr != nil || s.snapshotEvery <= 0 || s.sinceSnap < s.snapshotEvery {
		return
	}
	s.compactLocked()
}

// compactLocked writes the current state as a snapshot and truncates the
// log. The snapshot rename is atomic and the log is only truncated after
// the snapshot landed, so a crash between the two replays the (now
// redundant) log tail onto the snapshot — reapplying an ingest is
// idempotent thanks to the dedup key. Caller holds s.mu.
func (s *store) compactLocked() {
	if err := storage.WriteSnapshot(s.snapPath(), s.state().exportState()); err != nil {
		s.lastErr = err
		return
	}
	if err := s.log.Truncate(0); err != nil {
		s.lastErr = err
		return
	}
	s.sinceSnap = 0
}

// err returns the latched durability error, if any.
func (s *store) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// tearNext arms the WAL torn-write fault hook for the next append. Reports
// whether a log was present to arm.
func (s *store) tearNext(keep int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return false
	}
	s.log.TearNext(keep)
	return true
}

// close flushes and closes the log, returning any latched durability error.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return s.lastErr
	}
	if err := s.log.Close(); err != nil {
		return err
	}
	s.log = nil
	return s.lastErr
}
