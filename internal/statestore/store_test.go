package statestore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamo/internal/faults"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
)

func mkEntry(dev string, epoch, seq uint64, kind Kind, cycles uint64) Entry {
	return Entry{
		Device: dev, Epoch: epoch, Seq: seq, Kind: kind, Cycles: cycles,
		Payload: []byte(fmt.Sprintf("%s/%d/%d", dev, epoch, seq)),
	}
}

func TestWriterAppendAndSnapshotRetention(t *testing.T) {
	loop := simclock.NewSimLoop()
	s := NewStore(loop, "a", nil)
	w := s.NewWriter("rpp1", "primary")
	w.SetSnapshotEvery(4)

	if !w.SnapshotDue() {
		t.Fatal("first append must be a snapshot")
	}
	for cyc := uint64(1); cyc <= 10; cyc++ {
		kind := KindDelta
		if w.SnapshotDue() {
			kind = KindSnapshot
		}
		if err := w.Append(kind, cyc, []byte{byte(cyc)}); err != nil {
			t.Fatalf("append cycle %d: %v", cyc, err)
		}
	}
	// Appends: snap(1) d d d d snap(6) d d d d — retention truncates at the
	// latest snapshot, so entries 6..10 remain.
	ents, next := s.EntriesFrom("rpp1", 1)
	if next != 11 {
		t.Fatalf("nextSeq = %d, want 11", next)
	}
	if len(ents) != 5 || ents[0].Seq != 6 || ents[0].Kind != KindSnapshot {
		t.Fatalf("retained = %d entries from seq %d kind %v, want 5 from 6 (snapshot)", len(ents), ents[0].Seq, ents[0].Kind)
	}
	// A reader within the window gets exactly the tail.
	tail, _ := s.EntriesFrom("rpp1", 9)
	if len(tail) != 2 || tail[0].Seq != 9 {
		t.Fatalf("tail from 9 = %+v", tail)
	}
}

func TestAdoptFencesOldWriter(t *testing.T) {
	loop := simclock.NewSimLoop()
	s := NewStore(loop, "a", nil)
	w := s.NewWriter("rpp1", "primary")
	for cyc := uint64(1); cyc <= 3; cyc++ {
		kind := KindDelta
		if w.SnapshotDue() {
			kind = KindSnapshot
		}
		if err := w.Append(kind, cyc, nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}

	res := s.Adopt("rpp1", "backup")
	if !res.Found || res.Cycles != 3 || res.NextSeq != 4 {
		t.Fatalf("adopt = %+v, want found, cycles 3, nextSeq 4", res)
	}
	if res.Epoch != w.Epoch()+1 {
		t.Fatalf("adopt epoch %d, want %d", res.Epoch, w.Epoch()+1)
	}

	// The zombie primary's next append is rejected and the writer latches.
	err := w.Append(KindDelta, 4, nil)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie append err = %v, want ErrFenced", err)
	}
	if !w.Fenced() {
		t.Fatal("writer should latch Fenced after rejection")
	}
	if _, next := s.EntriesFrom("rpp1", 1); next != 4 {
		t.Fatalf("stream advanced by fenced append: nextSeq %d", next)
	}

	// The adopter installs and continues the stream; its first append is a
	// forced snapshot.
	w2 := s.NewWriter("rpp1", "backup")
	w2.Install(res.Epoch, res.NextSeq)
	if !w2.SnapshotDue() {
		t.Fatal("first append after Install must be a snapshot")
	}
	if err := w2.Append(KindSnapshot, 4, nil); err != nil {
		t.Fatalf("adopter append: %v", err)
	}
	if got := s.NextSeq("rpp1"); got != 5 {
		t.Fatalf("nextSeq after adopter append = %d, want 5", got)
	}
}

func TestAdoptUnknownDevice(t *testing.T) {
	loop := simclock.NewSimLoop()
	s := NewStore(loop, "a", nil)
	res := s.Adopt("ghost", "backup")
	if res.Found || res.NextSeq != 1 || res.Epoch == 0 {
		t.Fatalf("adopt of unknown device = %+v", res)
	}
}

// TestReplicateDropDuplicateReorder feeds a replica the writer's stream
// through every adversarial permutation the shipper can produce — dropped
// batches, duplicated batches, reordered batches — and checks the replica
// only ever holds a prefix-consistent stream (no gaps, no duplicates) and
// cumulative acks point the sender at exactly the missing suffix.
func TestReplicateDropDuplicateReorder(t *testing.T) {
	loop := simclock.NewSimLoop()
	src := NewStore(loop, "src", nil)
	w := src.NewWriter("rpp1", "primary")
	w.SetSnapshotEvery(100) // keep all entries as one snapshot + deltas
	var all []Entry
	for cyc := uint64(1); cyc <= 9; cyc++ {
		kind := KindDelta
		if w.SnapshotDue() {
			kind = KindSnapshot
		}
		if err := w.Append(kind, cyc, []byte{byte(cyc)}); err != nil {
			t.Fatal(err)
		}
	}
	all, _ = src.EntriesFrom("rpp1", 1)

	dst := NewStore(loop, "dst", nil)

	check := func(wantNext uint64) {
		t.Helper()
		ents, next := dst.EntriesFrom("rpp1", 1)
		if next != wantNext {
			t.Fatalf("replica nextSeq = %d, want %d", next, wantNext)
		}
		for i, e := range ents {
			if e.Seq != ents[0].Seq+uint64(i) {
				t.Fatalf("replica stream has a gap/duplicate at %d: %+v", i, ents)
			}
		}
	}

	// In-order batch applies.
	acks := dst.Replicate("src", all[0:3])
	if acks[0].NextSeq != 4 {
		t.Fatalf("ack = %+v, want nextSeq 4", acks[0])
	}
	check(4)

	// Reordered: a batch from the future is ignored (gap), ack rewinds.
	acks = dst.Replicate("src", all[5:7])
	if acks[0].NextSeq != 4 {
		t.Fatalf("future batch ack = %+v, want nextSeq 4", acks[0])
	}
	check(4)

	// Duplicate + continuation in one batch: duplicates ignored, suffix applied.
	acks = dst.Replicate("src", all[0:6])
	if acks[0].NextSeq != 7 {
		t.Fatalf("dup+continuation ack = %+v, want nextSeq 7", acks[0])
	}
	check(7)

	// Dropped batch (all[6:8] never arrives) then the tail: gap ignored.
	acks = dst.Replicate("src", all[8:9])
	if acks[0].NextSeq != 7 {
		t.Fatalf("post-drop ack = %+v, want nextSeq 7", acks[0])
	}
	check(7)

	// Retransmission from the ack heals the drop.
	acks = dst.Replicate("src", all[6:9])
	if acks[0].NextSeq != 10 {
		t.Fatalf("retransmit ack = %+v, want nextSeq 10", acks[0])
	}
	check(10)

	// The replica's stream is byte-identical to the source's.
	got, _ := dst.EntriesFrom("rpp1", 1)
	if len(got) != len(all) {
		t.Fatalf("replica holds %d entries, source %d", len(got), len(all))
	}
	for i := range got {
		if got[i].Seq != all[i].Seq || string(got[i].Payload) != string(all[i].Payload) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, got[i], all[i])
		}
	}
}

func TestReplicateSnapshotCatchUp(t *testing.T) {
	loop := simclock.NewSimLoop()
	src := NewStore(loop, "src", nil)
	w := src.NewWriter("rpp1", "primary")
	w.SetSnapshotEvery(3)
	for cyc := uint64(1); cyc <= 8; cyc++ {
		kind := KindDelta
		if w.SnapshotDue() {
			kind = KindSnapshot
		}
		if err := w.Append(kind, cyc, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Source retains from its latest snapshot (seq 5: snap(1) d d d snap(5)
	// d d d). A cold replica receives that window and must accept the
	// leading future snapshot as a reset.
	window, srcNext := src.EntriesFrom("rpp1", 1)
	if window[0].Kind != KindSnapshot || window[0].Seq == 1 {
		t.Fatalf("retention window should start at a later snapshot, got seq %d kind %v", window[0].Seq, window[0].Kind)
	}
	dst := NewStore(loop, "dst", nil)
	acks := dst.Replicate("src", window)
	if acks[0].NextSeq != srcNext {
		t.Fatalf("catch-up ack nextSeq = %d, want %d", acks[0].NextSeq, srcNext)
	}
	ents, _ := dst.EntriesFrom("rpp1", 1)
	if len(ents) != len(window) || ents[0].Seq != window[0].Seq {
		t.Fatalf("replica after catch-up holds %d entries from %d, want %d from %d",
			len(ents), ents[0].Seq, len(window), window[0].Seq)
	}
}

func TestReplicateFencesZombieSource(t *testing.T) {
	loop := simclock.NewSimLoop()
	dst := NewStore(loop, "dst", nil)
	// Writer at epoch 1 replicates two entries.
	dst.Replicate("old", []Entry{
		mkEntry("rpp1", 1, 1, KindSnapshot, 1),
		mkEntry("rpp1", 1, 2, KindDelta, 2),
	})
	// The replica-side store is adopted (promotion): epoch bumps past 1.
	res := dst.Adopt("rpp1", "backup")
	if res.Epoch <= 1 {
		t.Fatalf("adopt epoch = %d, want > 1", res.Epoch)
	}
	// Late entries from the zombie are rejected, stream unchanged.
	acks := dst.Replicate("old", []Entry{mkEntry("rpp1", 1, 3, KindDelta, 3)})
	if !acks[0].Fenced {
		t.Fatalf("ack = %+v, want fenced", acks[0])
	}
	if next := dst.NextSeq("rpp1"); next != 3 {
		t.Fatalf("zombie write advanced the stream: nextSeq %d, want 3", next)
	}
}

// TestShipperOverLossyNetwork runs the real shipper between two stores on
// a deterministic in-proc network behind a 40% drop rule. Dropped calls time
// out (losing both entries and acks, which also exercises duplicate
// resends); the cumulative-ack protocol must still converge the replica to
// the writer's exact stream.
func TestShipperOverLossyNetwork(t *testing.T) {
	loop := simclock.NewSimLoop()
	loop.SetStepLimit(5_000_000)
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 7)
	src := NewStore(loop, "src", nil)
	dst := NewStore(loop, "dst", nil)
	net.Register("store/dst", dst.Handler())
	lossy := faults.New(loop, 7, nil)
	lossy.Add(faults.Rule{Peer: "store/dst", DropP: 0.4})

	sh := NewShipper(loop, src, []Peer{{Name: "dst", Client: lossy.WrapClient("store/dst", net.Dial("store/dst"))}},
		ShipperConfig{Interval: 500 * time.Millisecond, Timeout: 200 * time.Millisecond})
	sh.Start()

	w := src.NewWriter("rpp1", "primary")
	w.SetSnapshotEvery(6)
	cyc := uint64(0)
	writer := simclock.NewTicker(loop, time.Second, func() {
		cyc++
		kind := KindDelta
		if w.SnapshotDue() {
			kind = KindSnapshot
		}
		if err := w.Append(kind, cyc, []byte{byte(cyc)}); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	writer.Start()

	loop.RunFor(30 * time.Second)
	writer.Stop()
	// Let retransmissions drain with writes stopped.
	loop.RunFor(20 * time.Second)

	if got, want := dst.NextSeq("rpp1"), src.NextSeq("rpp1"); got != want {
		t.Fatalf("replica converged to nextSeq %d, want %d (lag %d)", got, want, sh.Lag())
	}
	if sh.Lag() != 0 {
		t.Fatalf("shipper lag = %d after drain, want 0", sh.Lag())
	}
	srcEnts, _ := src.EntriesFrom("rpp1", 1)
	dstEnts, _ := dst.EntriesFrom("rpp1", 1)
	if len(dstEnts) < len(srcEnts) {
		t.Fatalf("replica retains %d entries, source %d", len(dstEnts), len(srcEnts))
	}
	for i, e := range dstEnts[len(dstEnts)-len(srcEnts):] {
		se := srcEnts[i]
		if e.Seq != se.Seq || e.Cycles != se.Cycles || string(e.Payload) != string(se.Payload) {
			t.Fatalf("replica entry %d = %+v, want %+v", i, e, se)
		}
	}
}

func TestStoreTelemetry(t *testing.T) {
	loop := simclock.NewSimLoop()
	sink := telemetry.NewSink()
	s := NewStore(loop, "a", sink)
	w := s.NewWriter("rpp1", "primary")
	if err := w.Append(KindSnapshot, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindDelta, 2, nil); err != nil {
		t.Fatal(err)
	}
	s.Adopt("rpp1", "backup")
	if err := w.Append(KindDelta, 3, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want fenced", err)
	}
	snaps := sink.Counter("dynamo_statestore_checkpoints_total", "store", "a", "kind", "snapshot")
	deltas := sink.Counter("dynamo_statestore_checkpoints_total", "store", "a", "kind", "delta")
	fenced := sink.Counter("dynamo_statestore_fenced_appends_total", "store", "a")
	adoptions := sink.Counter("dynamo_statestore_adoptions_total", "store", "a")
	if snaps.Value() != 1 || deltas.Value() != 1 || fenced.Value() != 1 || adoptions.Value() != 1 {
		t.Fatalf("counters: snap=%d delta=%d fenced=%d adoptions=%d",
			snaps.Value(), deltas.Value(), fenced.Value(), adoptions.Value())
	}
}
