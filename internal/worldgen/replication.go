package worldgen

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"csaw/internal/censor"
	"csaw/internal/globaldb"
	"csaw/internal/globaldb/replica"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
)

// Replication plumbing for worlds built with Options.GlobalDBReplicas, plus
// the replica-loss censor epoch: the §5 scenario where the censor
// blackholes the primary's IP mid-run and clients must fail over to a
// follower within one sync round.

// clientEndpoints is what a client's Replicas field should carry: the full
// endpoint set when the world runs replicas, nil otherwise (Addr alone then
// names the single server, keeping single-server worlds on the zero-cost
// fast path).
func (w *World) clientEndpoints() []string {
	if len(w.GlobalDBEndpoints) <= 1 {
		return nil
	}
	return w.GlobalDBEndpoints
}

// StartReplication launches the background pull loops for the world's
// followers. No-op without replicas. Stop with StopReplication (or cancel
// ctx).
func (w *World) StartReplication(ctx context.Context) {
	if w.ReplicaSet != nil {
		w.ReplicaSet.Start(ctx)
	}
}

// StopReplication halts the background pull loops and waits for them.
func (w *World) StopReplication() {
	if w.ReplicaSet != nil {
		w.ReplicaSet.Stop()
	}
}

// SyncReplicas pumps every follower to the primary's current head — the
// deterministic foreground alternative to StartReplication for
// discrete-event experiments that want replication quiesced at a known
// virtual instant. No-op without replicas.
func (w *World) SyncReplicas(ctx context.Context) error {
	if w.ReplicaSet == nil {
		return nil
	}
	return w.ReplicaSet.SyncAll(ctx)
}

// ReplicationLag returns the primary-side feed stats (per-follower
// acknowledged offsets, worst lag). Zero value without replicas.
func (w *World) ReplicationLag() storage.FeedStats {
	feed := w.GlobalDB.ReplicationFeed()
	if feed == nil {
		return storage.FeedStats{}
	}
	return feed.Stats()
}

// ReplicaLossPolicies returns the two epoch policies of the replica-loss
// scenario, derived from the ISP's standing policy: epoch 0 keeps it
// unchanged, epoch 1 additionally blackholes the global DB primary's IP
// (drops the SYN, so clients see a timeout — the real-world signature of an
// IP blacklisted by the censor, per the Turkmenistan study). The standing
// URL-blocking rules survive the flip: the censor targets the aggregation
// infrastructure on top of, not instead of, its content policy. Follower
// IPs stay reachable: the point is that the crowd's knowledge survives the
// loss of the hosted endpoint.
func ReplicaLossPolicies(base *censor.Policy) (clean, loss *censor.Policy) {
	if base == nil {
		base = &censor.Policy{}
	}
	clean = base
	l := *base
	l.Name = "replica-loss"
	if base.Name != "" {
		l.Name = base.Name + "+replica-loss"
	}
	ip := make(map[string]censor.IPAction, len(base.IP)+1)
	for k, v := range base.IP {
		ip[k] = v
	}
	ip[GlobalDBIP] = censor.IPDrop
	l.IP = ip
	return clean, &l
}

// buildPromotionSet wires the self-healing replica set: every node — the
// founding primary included — runs a logged, feed-enabled store
// wrapped in a promotion-capable replica.Follower, with the full peer list
// for election probes. Listeners are retained so experiments can kill and
// restart a node's serving process by index. Compaction is disabled on
// every node: with no snapshots the WAL is the complete history, follower
// pull offsets stay valid across restarts, and a demoted node can push its
// whole feed during reconciliation.
func (w *World) buildPromotionSet(o Options, gh *netem.Host, cloud *netem.AS) error {
	regions := []string{"us", "proxy-Netherlands", "proxy-Germany-2"}
	hosts := []*netem.Host{gh}
	for i := 0; i < o.GlobalDBReplicas; i++ {
		hosts = append(hosts, w.Net.MustAddHost(fmt.Sprintf("globaldb-replica-%d", i),
			fmt.Sprintf("40.0.1.%d", i+1), regions[i%len(regions)], cloud))
	}
	addrs := make([]string, len(hosts))
	for i, h := range hosts {
		addrs[i] = h.IP() + ":80"
	}
	nodes := make([]*replica.Follower, len(hosts))
	for i, h := range hosts {
		dir := ""
		if o.GlobalDBWALDir != "" {
			dir = filepath.Join(o.GlobalDBWALDir, fmt.Sprintf("node-%d", i))
		}
		srv, err := globaldb.NewServer(w.Clock, nil, globaldb.StoreOptions{
			Dir:           dir,
			SnapshotEvery: -1,
			Replicated:    true,
		})
		if err != nil {
			return err
		}
		f := &replica.Follower{
			Name:            fmt.Sprintf("node-%d", i),
			Server:          srv,
			PrimaryAddr:     addrs[0],
			PrimaryHost:     GlobalDBHost,
			Dial:            h.Dial,
			Clock:           w.Clock,
			Promote:         true,
			Self:            addrs[i],
			MissedThreshold: o.GlobalDBMissedThreshold,
		}
		for j, a := range addrs {
			if j != i {
				f.Peers = append(f.Peers, replica.Peer{Name: fmt.Sprintf("node-%d", j), Addr: a})
			}
		}
		if i == 0 {
			f.SetRole(globaldb.RoleLeader)
		}
		nodes[i] = f
	}
	w.GlobalDB = nodes[0].Server
	w.GlobalDBNodes = nodes
	w.gdbHosts = hosts
	w.gdbServers = make([]*httpx.Server, len(hosts))
	for i, h := range hosts {
		l, err := h.Listen(80)
		if err != nil {
			return err
		}
		w.gdbServers[i] = httpx.Serve(l, nodes[i].Handler())
	}
	w.GlobalDBEndpoints = addrs
	w.ReplicaSet = &replica.Set{Followers: nodes, Clock: w.Clock, Interval: o.GlobalDBReplInterval}
	return nil
}

// KillGlobalDBNode stops node i's listener: established state stays (this
// models a process pause / network death, not a disk loss), but every new
// connection — client writes, follower pulls, election probes — fails.
// No-op if already down.
func (w *World) KillGlobalDBNode(i int) error {
	if i < 0 || i >= len(w.gdbServers) || w.gdbServers[i] == nil {
		return nil
	}
	err := w.gdbServers[i].Close()
	w.gdbServers[i] = nil
	return err
}

// RestartGlobalDBNode resumes serving on node i. The node rejoins with the
// state (and role) it died with; its next controller step discovers any
// leadership change and demotes/resyncs as needed.
func (w *World) RestartGlobalDBNode(i int) error {
	if i < 0 || i >= len(w.gdbServers) || w.gdbServers[i] != nil {
		return nil
	}
	l, err := w.gdbHosts[i].Listen(80)
	if err != nil {
		return err
	}
	w.gdbServers[i] = httpx.Serve(l, w.GlobalDBNodes[i].Handler())
	return nil
}

// KillPrimary kills the founding primary (node 0).
func (w *World) KillPrimary() error { return w.KillGlobalDBNode(0) }

// RestartPrimary restarts the founding primary (node 0).
func (w *World) RestartPrimary() error { return w.RestartGlobalDBNode(0) }

// PromotionTick runs one promotion-controller step on every node, in node
// order, returning each node's action ("pulled", "missed", "promoted",
// "self-demoted", ...). Experiments drive failure detection and elections
// deterministically with this instead of background loops.
func (w *World) PromotionTick(ctx context.Context) []string {
	if w.ReplicaSet == nil {
		return nil
	}
	return w.ReplicaSet.Tick(ctx)
}

// GlobalDBLeader returns the index and node of the current leader, or
// (-1, nil) when no node currently claims leadership.
func (w *World) GlobalDBLeader() (int, *replica.Follower) {
	for i, f := range w.GlobalDBNodes {
		if f.RoleName() == globaldb.RoleLeader {
			return i, f
		}
	}
	return -1, nil
}

// ArmPrimaryLoss installs the primary-loss schedule on an ISP's censor:
// the standing policy from now, the same policy plus a blackholed primary
// IP from now+after. Unlike ArmReplicaLoss, the world must be running the
// promotion-enabled set — the experiment kills the primary at the flip, so
// writes only survive because a follower promotes itself.
func (w *World) ArmPrimaryLoss(isp *ISP, seed int64, after time.Duration) ([]censor.Epoch, error) {
	if len(w.GlobalDBNodes) == 0 {
		return nil, fmt.Errorf("worldgen: primary-loss epoch needs GlobalDBPromotion")
	}
	clean, loss := ReplicaLossPolicies(isp.Censor.Policy())
	loss.Name = "primary-loss"
	if clean.Name != "" {
		loss.Name = clean.Name + "+primary-loss"
	}
	now := w.Clock.Now()
	schedule := []censor.Epoch{
		{Start: now, Policy: clean},
		{Start: now.Add(after), Policy: loss},
	}
	isp.Censor.EnableChurn(w.Clock, seed)
	isp.Censor.SetSchedule(schedule)
	return schedule, nil
}

// ArmReplicaLoss installs the replica-loss schedule on an ISP's censor:
// the standing policy from now, the same policy plus a blackholed primary
// from now+after. Returns the schedule for reports. The world must be
// running replicas, or every client loses the DB outright when the epoch
// flips.
func (w *World) ArmReplicaLoss(isp *ISP, seed int64, after time.Duration) ([]censor.Epoch, error) {
	if len(w.GlobalDBEndpoints) <= 1 {
		return nil, fmt.Errorf("worldgen: replica-loss epoch needs GlobalDBReplicas > 0")
	}
	clean, loss := ReplicaLossPolicies(isp.Censor.Policy())
	now := w.Clock.Now()
	schedule := []censor.Epoch{
		{Start: now, Policy: clean},
		{Start: now.Add(after), Policy: loss},
	}
	isp.Censor.EnableChurn(w.Clock, seed)
	isp.Censor.SetSchedule(schedule)
	return schedule, nil
}
