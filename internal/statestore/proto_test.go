package statestore

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// sampleReplicate and sampleAcks are the round-trip goldens: a batch of a
// snapshot and a delta of two devices, and the acks a replica returns.
func sampleReplicate() *ReplicateRequest {
	return &ReplicateRequest{Source: "src", Entries: []Entry{
		mkEntry("rpp1", 3, 7, KindSnapshot, 42),
		mkEntry("rpp2", 1, 1, KindDelta, 1),
	}}
}

func sampleAcks() *ReplicateResponse {
	return &ReplicateResponse{Acks: []DeviceAck{
		{Device: "rpp1", NextSeq: 8, Epoch: 3},
		{Device: "rpp2", NextSeq: 1, Epoch: 4, Fenced: true},
	}}
}

func TestProtoRoundTrip(t *testing.T) {
	req := sampleReplicate()
	var got ReplicateRequest
	if err := wire.Unmarshal(wire.Marshal(req), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0].Seq != 7 || got.Entries[0].Kind != KindSnapshot ||
		string(got.Entries[0].Payload) != string(req.Entries[0].Payload) || got.Source != "src" {
		t.Fatalf("round trip = %+v", got)
	}

	acks := sampleAcks()
	var gotAcks ReplicateResponse
	if err := wire.Unmarshal(wire.Marshal(acks), &gotAcks); err != nil {
		t.Fatal(err)
	}
	if len(gotAcks.Acks) != 2 || gotAcks.Acks[0] != acks.Acks[0] || gotAcks.Acks[1] != acks.Acks[1] {
		t.Fatalf("ack round trip = %+v", gotAcks)
	}
}

// TestHandlerServesOnlyPeerMethods: a store answers its peers' shippers
// (Replicate, Ping) and nothing else. The retired remote append and
// remote adoption are unknown methods and leave the stream untouched.
func TestHandlerServesOnlyPeerMethods(t *testing.T) {
	s := NewStore(simclock.NewSimLoop(), "a", nil)
	w := s.NewWriter("rpp1", "primary")
	if err := w.Append(KindSnapshot, 5, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if _, err := h(MethodReplicate, wire.Marshal(&ReplicateRequest{Source: "peer"})); err != nil {
		t.Errorf("%s: %v", MethodReplicate, err)
	}
	if _, err := h(MethodPing, nil); err != nil {
		t.Errorf("%s: %v", MethodPing, err)
	}

	var adopt, appendOne wire.Encoder
	adopt.String("rpp1")
	adopt.String("backup")
	marshalEntry(&appendOne, &Entry{Device: "rpp1", Epoch: 1, Seq: 2, Kind: KindDelta, Cycles: 6})
	for method, body := range map[string][]byte{
		"StateStore.Adopt":  adopt.Bytes(),
		"StateStore.Append": appendOne.Bytes(),
	} {
		if m, err := h(method, body); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Errorf("%s answered %v, %v; want the unknown-method error", method, m, err)
		}
	}
	if s.Epoch("rpp1") != 1 || s.NextSeq("rpp1") != 2 {
		t.Errorf("stream at epoch %d, next seq %d; want 1, 2 untouched", s.Epoch("rpp1"), s.NextSeq("rpp1"))
	}
}

// allocatedBytes reports how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBatchDecodeRejectsCountPastFrame: a frame of a few bytes that
// claims the largest batch is refused before the batch is allocated, and
// the smallest-element sizes the check divides by are the real ones.
func TestBatchDecodeRejectsCountPastFrame(t *testing.T) {
	var e wire.Encoder
	marshalEntry(&e, &Entry{})
	if e.Len() != minEntryLen {
		t.Fatalf("an empty entry encodes to %d bytes, minEntryLen is %d", e.Len(), minEntryLen)
	}
	e.Reset()
	(&ReplicateResponse{Acks: make([]DeviceAck, 1)}).MarshalWire(&e)
	if e.Len()-1 != minAckLen {
		t.Fatalf("an empty ack encodes to %d bytes, minAckLen is %d", e.Len()-1, minAckLen)
	}

	e.Reset()
	e.Uvarint(maxBatchEntries)
	count := append([]byte(nil), e.Bytes()...)
	for _, tc := range []struct {
		name  string
		frame []byte
		msg   wire.Message
	}{
		{"ReplicateRequest", append([]byte{1, 'x'}, count...), &ReplicateRequest{}},
		{"ReplicateResponse", count, &ReplicateResponse{}},
	} {
		var err error
		n := allocatedBytes(func() { err = wire.Unmarshal(tc.frame, tc.msg) })
		if err == nil || n >= 64<<10 {
			t.Errorf("%s: a %d-byte frame claiming %d elements decoded with err %v after allocating %d bytes; want an error and < 64 KiB",
				tc.name, len(tc.frame), maxBatchEntries, err, n)
		}
	}
}

// FuzzReplicateRequestDecode feeds arbitrary bytes — what a peer's
// shipper could send — to the batch decoder. It must not panic, and a
// batch that decodes must re-encode to bytes that decode to the same
// batch.
func FuzzReplicateRequestDecode(f *testing.F) {
	golden := wire.Marshal(sampleReplicate())
	f.Add(golden)
	f.Add(wire.Marshal(&ReplicateRequest{}))
	f.Add([]byte{})
	f.Add(golden[:len(golden)/2])                 // truncated inside an entry
	f.Add(append(golden[:4:4], 0xff, 0xff, 0x7f)) // an entry count past the frame
	f.Add(append(append([]byte{}, golden...), 9)) // trailing bytes are allowed

	f.Fuzz(func(t *testing.T, data []byte) {
		var got ReplicateRequest
		if wire.Unmarshal(data, &got) != nil {
			return
		}
		enc := wire.Marshal(&got)
		var again ReplicateRequest
		if err := wire.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode of a decoded batch failed: %v", err)
		}
		if !bytes.Equal(wire.Marshal(&again), enc) {
			t.Fatalf("round trip of %+v gave %+v", got, again)
		}
	})
}
