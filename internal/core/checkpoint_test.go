package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/statestore"
	"dynamo/internal/wire"
)

// journalOf returns a journal of capacity n holding records for cycles
// 1..added: every field differs from record to record.
func journalOf(n, added int) *Journal {
	j := NewJournal(n)
	for c := 1; c <= added; c++ {
		j.Add(DecisionRecord{
			Cycle: uint64(c), Time: time.Duration(c) * 3 * time.Second,
			Agg: power.Watts(1000 + 7.25*float64(c)), Valid: c%5 != 0, Failures: c % 3,
			EffLimit: 1100, Action: Action(c % 3), Target: power.Watts(1045 - float64(c)/8),
			ServersPlanned: c % 11, Achieved: power.Watts(float64(c) / 3), Shortfall: power.Watts(c % 2),
			DryRun: c%7 == 0,
		})
	}
	return j
}

// checkpointGoldens are the checkpoints a controller encodes: a delta's
// one record, a snapshot of a partly filled ring, a snapshot of a wrapped
// ring, with PID state set and absent. Every one is encoded with the
// cycle record goldenRecord at cycle 99.
func checkpointGoldens() []struct {
	name     string
	snapshot bool
	j        *Journal
	pid      *pidState
} {
	pid := &pidState{integral: -412.5, last: 27 * time.Second, engaged: true, started: true}
	return []struct {
		name     string
		snapshot bool
		j        *Journal
		pid      *pidState
	}{
		{"delta", false, journalOf(8, 5), nil},
		{"delta-pid", false, journalOf(8, 5), pid},
		{"snapshot-partly-filled", true, journalOf(8, 5), nil},
		{"snapshot-full", true, journalOf(8, 8), pid},
		{"snapshot-wrapped", true, journalOf(8, 13), pid},
		{"snapshot-wrapped-no-pid", true, journalOf(8, 21), nil},
		{"snapshot-empty", true, journalOf(8, 0), nil},
	}
}

var goldenRecord = DecisionRecord{Cycle: 99, Agg: 1234.5, Valid: true, Action: ActionCap, Target: 1045}

// TestEncodeCheckpointMatchesMarshal: the checkpoint a controller encodes
// straight from its journal ring is byte for byte the wire.Marshal of the
// ControllerCheckpoint it stands for, and it replays to the same records
// and internals.
func TestEncodeCheckpointMatchesMarshal(t *testing.T) {
	for _, tc := range checkpointGoldens() {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.j.Records()
			rec := goldenRecord
			want := ControllerCheckpoint{Cycles: 99, LastAction: ActionCap, Contract: 1080}
			if tc.pid != nil {
				want.PIDIntegral, want.PIDLast = tc.pid.integral, tc.pid.last
				want.PIDEngaged, want.PIDStarted = tc.pid.engaged, tc.pid.started
			}
			want.Records = []DecisionRecord{rec}
			if tc.snapshot {
				want.Records = recs
			}

			var e wire.Encoder
			encodeCheckpoint(&e, tc.snapshot, tc.j, &rec, 99, ActionCap, 1080, tc.pid)
			if !bytes.Equal(e.Bytes(), wire.Marshal(&want)) {
				t.Fatalf("encoded checkpoint differs from wire.Marshal:\n got %x\nwant %x", e.Bytes(), wire.Marshal(&want))
			}

			kind := statestore.KindDelta
			if tc.snapshot {
				kind = statestore.KindSnapshot
			}
			replayed, last, ok := ReplayCheckpoints([]statestore.Entry{{Kind: kind, Payload: e.Bytes()}})
			if !ok {
				t.Fatal("the encoded checkpoint does not replay")
			}
			if len(want.Records) == 0 {
				want.Records = nil
			}
			if !reflect.DeepEqual(replayed, want.Records) {
				t.Errorf("replayed records %v, want %v", replayed, want.Records)
			}
			want.Records = nil
			if !reflect.DeepEqual(last, want) {
				t.Errorf("replayed internals %+v, want %+v", last, want)
			}
		})
	}
}

// TestCheckpointStreamReplays: a leaf's stream — a snapshot, then deltas
// — replays to the journal the leaf holds, and every payload the store
// keeps is its own copy, exactly its size, of bytes the writers encoded
// through the store's one shared encoder.
func TestCheckpointStreamReplays(t *testing.T) {
	f := newFixture(t)
	refs := f.addFleet(10, "web", 0.8)
	store := statestore.NewStore(f.loop, "local", nil)
	w := store.NewWriter("rpp1", "primary")
	w.SetSnapshotEvery(4)
	leaf := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp1", Limit: 2800, Checkpoint: w, Alerts: f.alertSink()}, refs)
	// A second writer on the same store shares its encoder.
	other := NewLeaf(f.loop, LeafConfig{DeviceID: "rpp2", Limit: 2800, Checkpoint: store.NewWriter("rpp2", "primary")}, f.refs())
	leaf.Start()
	other.Start()
	f.loop.RunUntil(40 * time.Second)
	if leaf.CapEvents() == 0 {
		t.Fatal("the leaf never capped; the stream holds no capping records")
	}

	entries, _ := store.EntriesFrom("rpp1", 0)
	if len(entries) < 2 || entries[0].Kind != statestore.KindSnapshot {
		t.Fatalf("stream of %d entries, want a snapshot then deltas", len(entries))
	}
	for i, e := range entries {
		if cap(e.Payload) != len(e.Payload) {
			t.Errorf("entry %d: payload of %d bytes in a %d-byte buffer", i, len(e.Payload), cap(e.Payload))
		}
	}
	recs, last, ok := ReplayCheckpoints(entries)
	if !ok {
		t.Fatal("stream does not replay")
	}
	held := leaf.Journal().Records()
	if !reflect.DeepEqual(recs, held[len(held)-len(recs):]) {
		t.Errorf("replayed %d records that are not the tail of the journal's %d", len(recs), len(held))
	}
	if last.Cycles != leaf.Cycles() {
		t.Errorf("replayed cycle counter %d, want %d", last.Cycles, leaf.Cycles())
	}
}

// TestCheckpointDecodeRejectsCountPastFrame: a 24-byte checkpoint that
// claims the largest record count is refused before the records are
// allocated, and minRecordLen is the size of the smallest record.
func TestCheckpointDecodeRejectsCountPastFrame(t *testing.T) {
	var e wire.Encoder
	encodeDecisionRecord(&e, &DecisionRecord{})
	if e.Len() != minRecordLen {
		t.Fatalf("an empty record encodes to %d bytes, minRecordLen is %d", e.Len(), minRecordLen)
	}
	e.Reset()
	(&ControllerCheckpoint{}).marshalInternals(&e)
	e.Uvarint(maxCheckpointRecords)
	frame := e.Bytes()

	var before, after runtime.MemStats
	var err error
	runtime.ReadMemStats(&before)
	err = wire.Unmarshal(frame, &ControllerCheckpoint{})
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 64<<10 {
		t.Errorf("a %d-byte checkpoint claiming %d records decoded with err %v after allocating %d bytes; want an error and < 64 KiB",
			len(frame), maxCheckpointRecords, err, n)
	}
}

// FuzzControllerCheckpointDecode feeds arbitrary bytes — what a replica
// could hold after a peer shipped it — to the checkpoint decoder. It must
// not panic, and a checkpoint that decodes must re-encode to bytes that
// decode to the same checkpoint. Bytes stand for the values, so a NaN
// compares as the bits it is.
func FuzzControllerCheckpointDecode(f *testing.F) {
	for _, tc := range checkpointGoldens() {
		var e wire.Encoder
		rec := goldenRecord
		encodeCheckpoint(&e, tc.snapshot, tc.j, &rec, 99, ActionCap, 1080, tc.pid)
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	full := wire.Marshal(&ControllerCheckpoint{Records: journalOf(4, 4).Records()})
	f.Add([]byte{})
	f.Add(full[:len(full)/2])                     // truncated inside a record
	f.Add(append(full[:21:21], 0xff, 0xff, 0x7f)) // a record count past the frame
	f.Add(append(append([]byte{}, full...), 9))   // trailing bytes are allowed

	f.Fuzz(func(t *testing.T, data []byte) {
		var got ControllerCheckpoint
		if wire.Unmarshal(data, &got) != nil {
			return
		}
		enc := wire.Marshal(&got)
		var again ControllerCheckpoint
		if err := wire.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode of a decoded checkpoint failed: %v", err)
		}
		if !bytes.Equal(wire.Marshal(&again), enc) {
			t.Fatalf("round trip of %+v gave %+v", got, again)
		}
	})
}
