package agent

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"dynamo/internal/wire"
)

var sampleReading = ReadPowerResponse{TotalWatts: 287.5, Service: "newsfeed", CapWatts: 260, Capped: true}

// sampleReadingWire is sampleReading's encoding: the layout tag, the total,
// the length-prefixed service, the cap and its flag.
var sampleReadingWire = mustHex("81 4071f80000000000 08 6e65777366656564 4070400000000000 01")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		panic(err)
	}
	return b
}

// TestReadingLayout pins the reading's bytes, and its size for a web
// server: 22 bytes, where the untagged layout with the breakdown, sensor
// flag, utilization and hardware generation took 74.
func TestReadingLayout(t *testing.T) {
	if got := wire.Marshal(&sampleReading); !bytes.Equal(got, sampleReadingWire) {
		t.Fatalf("sample reading encodes to %x, want %x", got, sampleReadingWire)
	}
	var out ReadPowerResponse
	if err := wire.Unmarshal(sampleReadingWire, &out); err != nil || out != sampleReading {
		t.Fatalf("golden bytes decode to %+v, %v; want %+v", out, err, sampleReading)
	}
	web := ReadPowerResponse{TotalWatts: 251.3, Service: "web"}
	if n := len(wire.Marshal(&web)); n != 22 {
		t.Errorf("a web reading is %d bytes, want 22", n)
	}
	if n := len(oldLayout(web)); n != 74 {
		t.Errorf("the untagged web reading is %d bytes, want 74", n)
	}
}

// oldLayout encodes r as agents did before the layout tag: the total, the
// §III-B breakdown (CPU, memory, other, AC-DC loss), the sensor flag, CPU
// utilization, the service and hardware generation, then the cap.
func oldLayout(r ReadPowerResponse) []byte {
	e := wire.NewEncoder(nil)
	e.Float64(r.TotalWatts)
	for _, w := range []float64{180, 40, 50, 17.5} {
		e.Float64(w)
	}
	e.Bool(true)
	e.Float64(0.71)
	e.String(r.Service)
	e.String("haswell2015")
	e.Float64(r.CapWatts)
	e.Bool(r.Capped)
	return e.Bytes()
}

// decodeOldLayout is a controller's decode from before the layout tag.
func decodeOldLayout(b []byte) error {
	d := wire.NewDecoder(b)
	for i := 0; i < 5; i++ {
		d.Float64()
	}
	d.Bool()
	d.Float64()
	_, _ = d.String(), d.String()
	d.Float64()
	d.Bool()
	return d.Err()
}

// TestMixedLayoutsFailLoudly covers both pairings of a rolling upgrade. An
// untagged reply starts with a non-negative float64, so with a byte below
// 0x80, and decodes to an error, never to a reading; a tagged web reading
// is too short for the untagged decode, which fails on truncation.
func TestMixedLayoutsFailLoudly(t *testing.T) {
	for _, total := range []float64{0, 0.1, 287.5, 1e6, math.MaxFloat64, math.Inf(1), math.NaN()} {
		r := sampleReading
		r.TotalWatts = total
		old := oldLayout(r)
		if old[0] >= 0x80 {
			t.Fatalf("untagged reading of %v W starts with %#x", total, old[0])
		}
		out := ReadPowerResponse{Service: "web", TotalWatts: 1}
		if err := wire.Unmarshal(old, &out); !errors.Is(err, ErrReadingLayout) {
			t.Fatalf("untagged reading of %v W: decode error %v, want ErrReadingLayout", total, err)
		}
		if out != (ReadPowerResponse{}) {
			t.Fatalf("untagged reading of %v W left %+v, want a zeroed message", total, out)
		}
	}
	if err := decodeOldLayout(wire.Marshal(&ReadPowerResponse{TotalWatts: 251.3, Service: "web", CapWatts: 230, Capped: true})); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("untagged decode of a tagged reading: %v, want wire.ErrTruncated", err)
	}
}

// TestReadingCodecReuseAllocs is the codec as the pull path uses it: the
// reading appended into a buffer that is kept, then decoded by a Decoder
// that is kept into a message that already holds the server's service.
func TestReadingCodecReuseAllocs(t *testing.T) {
	var enc wire.Encoder
	var dec wire.Decoder
	in, out := sampleReading, ReadPowerResponse{}
	buf := make([]byte, 0, 32)
	roundTrip := func() {
		buf = enc.AppendMarshal(buf[:0], &in)
		dec.Reset(buf)
		if err := out.UnmarshalWire(&dec); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // the first decode allocates the service
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
// preloaded with an unrelated service). The two must agree on whether the
// bytes decode and on every field, must not panic, and must never produce
// a string longer than wire.MaxStringLen.
func FuzzReadPowerResponseDecode(f *testing.F) {
	full := sampleReadingWire
	f.Add(full)
	f.Add(wire.Marshal(&ReadPowerResponse{}))
	f.Add([]byte{})
	f.Add(full[:len(full)/2])                               // truncated inside the service
	f.Add(append(full[:9:9], 0xff, 0xff, 0xff, 0xff, 0x7f)) // service length far past the limit
	f.Add(append(append([]byte{}, full...), 1, 2, 3))       // trailing bytes are allowed
	f.Add(oldLayout(sampleReading))                         // an untagged reading

	var dec wire.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh ReadPowerResponse
		freshErr := wire.Unmarshal(data, &fresh)

		reused := ReadPowerResponse{Service: "somebody-else", TotalWatts: -1, Capped: true}
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
		if len(reused.Service) > wire.MaxStringLen {
			t.Fatalf("decoded a string of %d bytes past the limit", len(reused.Service))
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
