package agent

import (
	"bytes"
	"strings"
	"testing"

	"dynamo/internal/wire"
)

var sampleReading = ReadPowerResponse{
	TotalWatts: 287.5, CPUWatts: 180, MemoryWatts: 40, OtherWatts: 50, ACDCLossWatts: 17.5,
	HasSensor: true, CPUUtil: 0.71, Service: "newsfeed", Generation: "haswell2015",
	CapWatts: 260, Capped: true,
}

// TestReadingCodecReuseAllocs is the codec as the pull path uses it: the
// reading appended into a buffer that is kept, then decoded by a Decoder
// that is kept into a message that already holds the server's strings.
func TestReadingCodecReuseAllocs(t *testing.T) {
	var enc wire.Encoder
	var dec wire.Decoder
	in, out := sampleReading, ReadPowerResponse{}
	buf := make([]byte, 0, 96)
	roundTrip := func() {
		buf = enc.AppendMarshal(buf[:0], &in)
		dec.Reset(buf)
		if err := out.UnmarshalWire(&dec); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // the first decode allocates the two strings
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Errorf("append-marshal + reuse-decode allocates %v per round trip, want 0", n)
	}
	if out != in {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	// A changed string is decoded, not kept.
	in.Service = "cache"
	roundTrip()
	if out != in {
		t.Fatalf("after a service change decoded %+v, want %+v", out, in)
	}
}

// FuzzReadPowerResponseDecode feeds arbitrary bytes — what a peer could
// send — to a fresh decode and to the reuse path (kept Decoder, message
// preloaded with unrelated strings). The two must agree on whether the
// bytes decode and on every field, must not panic, and must never produce
// a string longer than wire.MaxStringLen.
func FuzzReadPowerResponseDecode(f *testing.F) {
	f.Add(wire.Marshal(&sampleReading))
	f.Add(wire.Marshal(&ReadPowerResponse{}))
	f.Add([]byte{})
	full := wire.Marshal(&sampleReading)
	f.Add(full[:len(full)/2])                                 // truncated inside the strings
	f.Add(append(full[:49:49], 0xff, 0xff, 0xff, 0xff, 0x7f)) // service length far past the limit
	f.Add(append(append([]byte{}, full...), 1, 2, 3))         // trailing bytes are allowed

	var dec wire.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh ReadPowerResponse
		freshErr := wire.Unmarshal(data, &fresh)

		reused := ReadPowerResponse{Service: "somebody-else", Generation: strings.Repeat("x", 40), TotalWatts: -1, Capped: true}
		dec.Reset(data)
		reusedErr := reused.UnmarshalWire(&dec)

		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("fresh decode err = %v, reuse decode err = %v", freshErr, reusedErr)
		}
		// Compare via re-encoding: it covers every field and treats NaN
		// payloads, which != would call unequal, as the bits they are.
		if a, b := wire.Marshal(&fresh), wire.Marshal(&reused); string(a) != string(b) {
			t.Fatalf("fresh decode %+v, reuse decode %+v", fresh, reused)
		}
		if len(reused.Service) > wire.MaxStringLen || len(reused.Generation) > wire.MaxStringLen {
			t.Fatalf("decoded a string of %d/%d bytes past the limit", len(reused.Service), len(reused.Generation))
		}
		if freshErr == nil {
			// What decoded must survive a round trip.
			var again ReadPowerResponse
			if err := wire.Unmarshal(wire.Marshal(&fresh), &again); err != nil {
				t.Fatalf("re-decode of a decoded reading failed: %v", err)
			}
		}
	})
}

// FuzzReadPowerRequestDecode feeds arbitrary bytes to a pull's body
// decode, fresh and into a request that holds an earlier lease. The two
// must agree, must not panic, and what decodes must survive a round trip.
func FuzzReadPowerRequestDecode(f *testing.F) {
	f.Add([]byte{})                                                  // a plain read
	f.Add(wire.Marshal(&ReadPowerRequest{LeaseNanos: 12e9}))         // a renewing read
	f.Add([]byte{0x80})                                              // a truncated varint
	f.Add(bytes.Repeat([]byte{0xff}, 11))                            // a varint past 64 bits
	f.Add(append(wire.Marshal(&ReadPowerRequest{LeaseNanos: 1}), 9)) // trailing bytes are allowed

	var dec wire.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh ReadPowerRequest
		freshErr := wire.Unmarshal(data, &fresh)
		reused := ReadPowerRequest{LeaseNanos: 42}
		dec.Reset(data)
		reusedErr := reused.UnmarshalWire(&dec)
		if (freshErr == nil) != (reusedErr == nil) || (freshErr == nil && fresh != reused) {
			t.Fatalf("fresh decode %+v (%v), reuse decode %+v (%v)", fresh, freshErr, reused, reusedErr)
		}
		if freshErr != nil {
			return
		}
		var again ReadPowerRequest
		if err := wire.Unmarshal(wire.Marshal(&fresh), &again); err != nil || again != fresh {
			t.Fatalf("round trip of %+v gave %+v, %v", fresh, again, err)
		}
	})
}
