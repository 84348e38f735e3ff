package core

import (
	"testing"
	"time"

	"dynamo/internal/faults"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/wire"
)

// TestFailoverAdoptsFromReplicaOverLossyLink drives a capping episode on
// the primary while its checkpoint stream replicates to a replica store
// over a link that drops 40% of batches (retransmission reorders and
// duplicates the rest). The primary's host then "dies" (control address
// gone, shipper stopped); the backup must promote and adopt a
// prefix-consistent journal from the replica: no cycle-number gaps, no
// duplicates, every adopted record byte-equal to the primary's record of
// the same cycle.
func TestFailoverAdoptsFromReplicaOverLossyLink(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8)
	limit := power.Watts(2800)

	primaryStore := statestore.NewStore(f.loop, "primary", nil)
	replica := statestore.NewStore(f.loop, "replica", nil)
	f.net.Register("store/replica", replica.Handler())
	f.faults.Add(faults.Rule{Peer: "store/replica", DropP: 0.4})
	sh := statestore.NewShipper(f.loop, primaryStore,
		[]statestore.Peer{{Name: "replica", Client: f.dial("store/replica")}},
		statestore.ShipperConfig{Interval: 500 * time.Millisecond, Timeout: 200 * time.Millisecond})
	sh.Start()

	pw := primaryStore.NewWriter("rpp1", "primary")
	pw.SetSnapshotEvery(4) // frequent snapshots exercise snapshot-plus-delta catch-up
	primary := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit, Checkpoint: pw, Alerts: f.alertSink(),
	}, refs)
	// The backup writes its own checkpoints into the replica it adopts from.
	backup := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: replica.NewWriter("rpp1", "backup"),
	}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()

	// The promotion alert fires after StartPromoted and before the
	// backup's first cycle: its journal then holds only what it adopted.
	var adopted []DecisionRecord
	sink := f.alertSink()
	fo := NewFailover(f.loop, f.net, []Controller{backup}, FailoverConfig{
		PingInterval: 2 * time.Second, Store: replica,
		Alerts: func(a Alert) {
			if a.Kind == KindPromoted {
				adopted = backup.Journal().Records()
			}
			sink(a)
		},
	})
	fo.Start()

	// Capping episode under replication.
	f.loop.RunUntil(40 * time.Second)
	if primary.CapEvents() == 0 {
		t.Fatal("primary never capped; episode missing")
	}

	// Host death: controller unreachable, replication stops mid-stream.
	sh.Stop()
	primary.Stop()
	f.net.Unregister(CtrlAddr("rpp1"))
	f.loop.RunUntil(70 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted")
	}

	// The adopted journal is a prefix of the primary's: the lossy link may
	// have lost the tail, but never reordered or duplicated what arrived.
	if len(adopted) == 0 {
		t.Fatal("backup adopted no records from the replica")
	}
	prim := primary.Journal().Records()
	if len(adopted) > len(prim) {
		t.Fatalf("backup adopted %d records, primary only produced %d", len(adopted), len(prim))
	}
	sawCap := false
	for i, r := range adopted {
		if r != prim[i] {
			t.Fatalf("adopted record %d diverges:\n  primary %v\n  backup  %v", i, prim[i], r)
		}
		if i > 0 && r.Cycle != adopted[i-1].Cycle+1 {
			t.Fatalf("adopted journal has a gap or duplicate: cycle %d follows %d",
				r.Cycle, adopted[i-1].Cycle)
		}
		if r.Action == ActionCap {
			sawCap = true
		}
	}
	if !sawCap {
		t.Error("capping episode missing from adopted journal")
	}

	// The backup resumes the numbering with no gap or duplicate.
	f.loop.RunUntil(100 * time.Second)
	all := backup.Journal().Records()
	if len(all) <= len(adopted) {
		t.Fatal("backup produced no records of its own after promotion")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Cycle != all[i-1].Cycle+1 {
			t.Fatalf("backup journal has a gap or duplicate after promotion: cycle %d follows %d",
				all[i].Cycle, all[i-1].Cycle)
		}
	}
}

// TestZombiePrimaryFencedAtReplica promotes a backup while the old primary
// is still alive and shipping (a zombie: healthy process, unreachable
// control address). The adoption bumps the replica's stream epoch, so the
// zombie's late checkpoint batches are rejected and its shipper latches
// the device, while the promoted backup keeps appending at the new epoch.
func TestZombiePrimaryFencedAtReplica(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8)
	limit := power.Watts(2800)

	primaryStore := statestore.NewStore(f.loop, "primary", nil)
	replica := statestore.NewStore(f.loop, "replica", nil)
	f.net.Register("store/replica", replica.Handler())
	sh := statestore.NewShipper(f.loop, primaryStore,
		[]statestore.Peer{{Name: "replica", Client: f.dial("store/replica")}},
		statestore.ShipperConfig{Interval: 500 * time.Millisecond})
	sh.Start()

	primary := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: primaryStore.NewWriter("rpp1", "primary"),
	}, refs)
	backup := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: replica.NewWriter("rpp1", "backup"),
	}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	fo := NewFailoverProbe(f.loop, f.dial(CtrlAddr("rpp1")), []Controller{backup}, FailoverConfig{
		PingInterval: 2 * time.Second, Store: replica, Alerts: f.alertSink(),
	})
	fo.Start()

	f.loop.RunUntil(20 * time.Second)
	// Partition only the control address: probes fail, but the zombie keeps
	// cycling against its agents and keeps shipping checkpoints.
	f.partition(CtrlAddr("rpp1"))
	f.loop.RunUntil(60 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup not promoted")
	}
	if !primary.Running() {
		t.Fatal("zombie primary should still be running (only its control address is partitioned)")
	}

	// The replica fenced the zombie's stream at adoption...
	if re, pe := replica.Epoch("rpp1"), primaryStore.Epoch("rpp1"); re <= pe {
		t.Fatalf("replica epoch %d not ahead of zombie epoch %d after adoption", re, pe)
	}
	// ...so the zombie's shipper latched the device...
	fenced := sh.FencedDevices()
	if len(fenced) != 1 || fenced[0] != "rpp1" {
		t.Fatalf("shipper fenced devices = %v, want [rpp1]", fenced)
	}
	// ...and every replica entry past the adoption point is the backup's.
	epoch := replica.Epoch("rpp1")
	ents, _ := replica.EntriesFrom("rpp1", 1)
	top := ents[len(ents)-1]
	if top.Epoch != epoch {
		t.Fatalf("replica head entry epoch %d, want post-adoption epoch %d", top.Epoch, epoch)
	}
	if top.Cycles < backup.Cycles() {
		t.Fatalf("replica head checkpoint at cycle %d, backup at %d: backup's writes not landing",
			top.Cycles, backup.Cycles())
	}
}

// TestZombieStopsOnSharedStoreFence covers the shared-store deployment
// (both controllers checkpoint into one store instance): adoption bumps
// the epoch under the still-running primary, whose very next act-phase
// checkpoint fails ErrFenced — it must alert and stop actuating.
func TestZombieStopsOnSharedStoreFence(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8)
	limit := power.Watts(2800)

	store := statestore.NewStore(f.loop, "shared", nil)
	primary := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: store.NewWriter("rpp1", "primary"),
		Alerts:     f.alertSink(),
	}, refs)
	backup := NewLeaf(f.loop, LeafConfig{
		DeviceID: "rpp1", Limit: limit,
		Checkpoint: store.NewWriter("rpp1", "backup"),
	}, f.refs())
	primary.Start()

	f.loop.RunUntil(10 * time.Second)
	if !primary.Running() {
		t.Fatal("primary not running")
	}

	// Adoption while the primary still cycles: the epoch bump fences it.
	f.loop.Post(func() {
		if _, ok := backup.Adopt(store.Adopt("rpp1", "backup")); !ok {
			t.Error("adoption found no stream that replays")
			return
		}
		backup.Start()
	})

	f.loop.RunUntil(25 * time.Second)
	if primary.Running() {
		t.Fatal("fenced zombie primary still running; it must stop on ErrFenced")
	}
	if !backup.Running() {
		t.Fatal("promoted backup not running")
	}
	sawFence := false
	for _, a := range f.alerts {
		if a.Level == AlertCritical && a.Kind == KindCheckpointFenced {
			sawFence = true
		}
	}
	if !sawFence {
		t.Error("no critical fencing alert from the zombie primary")
	}
}

// TestFailoverJitteredProbesTolerateSingleDrop checks the threshold
// behaviour directly: three consecutive misses promote, so two isolated
// dropped probes must not, and probe times must spread (jitter applied).
func TestFailoverJitteredProbesTolerateSingleDrop(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(4, "web", 0.5)
	primary := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, refs)
	backup := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: power.KW(50)}, f.refs())
	f.net.Register(CtrlAddr("rpp1"), primary.Handler())
	primary.Start()
	probe := &probeTimes{Client: f.dial(CtrlAddr("rpp1")), loop: f.loop}
	fo := NewFailoverProbe(f.loop, probe, []Controller{backup}, FailoverConfig{
		PingInterval: 2 * time.Second, Alerts: f.alertSink(),
	})
	fo.Start()

	// Drop exactly one probe window, then heal; repeat. Never 3 in a row.
	f.loop.RunUntil(10 * time.Second)
	f.partition(CtrlAddr("rpp1"))
	f.loop.RunUntil(12500 * time.Millisecond) // one probe interval inside the partition
	f.heal(CtrlAddr("rpp1"))
	f.loop.RunUntil(20 * time.Second)
	f.partition(CtrlAddr("rpp1"))
	f.loop.RunUntil(22500 * time.Millisecond)
	f.heal(CtrlAddr("rpp1"))
	f.loop.RunUntil(40 * time.Second)

	if fo.Promoted() {
		t.Fatal("two isolated dropped probes promoted the backup; threshold requires 3 consecutive misses")
	}
	if backup.Running() {
		t.Fatal("backup started without promotion")
	}

	// A sustained outage still promotes.
	f.partition(CtrlAddr("rpp1"))
	f.loop.RunUntil(70 * time.Second)
	if !fo.Promoted() {
		t.Fatal("sustained outage did not promote the backup")
	}

	// Before the first drop, each probe follows the last one's reply (a
	// 4 ms round trip on the fixture's network) by PingInterval ± 10%, and
	// the gaps differ.
	gaps := map[time.Duration]bool{}
	for i := 1; i < len(probe.at) && probe.at[i] < 10*time.Second; i++ {
		gap := probe.at[i] - probe.at[i-1]
		if gap < 1800*time.Millisecond || gap > 2204*time.Millisecond {
			t.Errorf("probe %d follows the last by %v, want 2s ± 10%%", i, gap)
		}
		gaps[gap] = true
	}
	if len(gaps) < 3 {
		t.Errorf("probe gaps %v before the first drop: want at least 3 distinct", gaps)
	}
}

// probeTimes records when each probe is sent.
type probeTimes struct {
	rpc.Client
	loop *simclock.SimLoop
	at   []time.Duration
}

func (p *probeTimes) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	p.at = append(p.at, p.loop.Now())
	p.Client.Call(method, req, timeout, done)
}
