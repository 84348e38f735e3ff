package statestore

import (
	"fmt"

	"dynamo/internal/rpc"
	"dynamo/internal/wire"
)

// State-store RPC method names: a store serves its peers' shippers and
// nothing else. Adoption reads the backup's own replica in its process.
const (
	// MethodReplicate applies a shipped batch and returns cumulative acks.
	MethodReplicate = "StateStore.Replicate"
	// MethodPing reports store liveness and stream counts.
	MethodPing = "StateStore.Ping"
)

// marshalEntry/unmarshalEntry encode one entry of a replicated batch.
func marshalEntry(e *wire.Encoder, ent *Entry) {
	e.String(ent.Device)
	e.Uvarint(ent.Epoch)
	e.Uvarint(ent.Seq)
	e.Uvarint(uint64(ent.Kind))
	e.Uvarint(ent.Cycles)
	e.Bytes2(ent.Payload)
}

func unmarshalEntry(d *wire.Decoder, ent *Entry) {
	ent.Device = d.String()
	ent.Epoch = d.Uvarint()
	ent.Seq = d.Uvarint()
	ent.Kind = Kind(d.Uvarint())
	ent.Cycles = d.Uvarint()
	ent.Payload = d.Bytes2()
}

// maxBatchEntries bounds decoded batch sizes against corrupt frames.
const maxBatchEntries = 1 << 16

// The fewest bytes one element of a batch encodes to: every string and
// byte slice empty, every varint one byte. A count the bytes left cannot
// hold at this size is rejected before the batch is allocated.
const (
	minEntryLen = 6 // device, epoch, seq, kind, cycles, payload
	minAckLen   = 4 // device, next seq, epoch, fenced
)

// ReplicateRequest ships a batch of entries to a peer store.
type ReplicateRequest struct {
	// Source names the shipping store (telemetry/ownership bookkeeping).
	Source  string
	Entries []Entry
}

// MarshalWire implements wire.Message.
func (m *ReplicateRequest) MarshalWire(e *wire.Encoder) {
	e.String(m.Source)
	e.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		marshalEntry(e, &m.Entries[i])
	}
}

// UnmarshalWire implements wire.Message.
func (m *ReplicateRequest) UnmarshalWire(d *wire.Decoder) error {
	m.Source = d.String()
	n := d.Uvarint()
	if n > maxBatchEntries || n > uint64(d.Remaining()/minEntryLen) {
		return fmt.Errorf("statestore: replicate batch of %d entries exceeds limit or frame", n)
	}
	m.Entries = make([]Entry, n)
	for i := range m.Entries {
		unmarshalEntry(d, &m.Entries[i])
	}
	return d.Err()
}

// ReplicateResponse returns one cumulative ack per shipped device.
type ReplicateResponse struct {
	Acks []DeviceAck
}

// MarshalWire implements wire.Message.
func (m *ReplicateResponse) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(len(m.Acks)))
	for i := range m.Acks {
		a := &m.Acks[i]
		e.String(a.Device)
		e.Uvarint(a.NextSeq)
		e.Uvarint(a.Epoch)
		e.Bool(a.Fenced)
	}
}

// UnmarshalWire implements wire.Message.
func (m *ReplicateResponse) UnmarshalWire(d *wire.Decoder) error {
	n := d.Uvarint()
	if n > maxBatchEntries || n > uint64(d.Remaining()/minAckLen) {
		return fmt.Errorf("statestore: ack batch of %d exceeds limit or frame", n)
	}
	m.Acks = make([]DeviceAck, n)
	for i := range m.Acks {
		a := &m.Acks[i]
		a.Device = d.String()
		a.NextSeq = d.Uvarint()
		a.Epoch = d.Uvarint()
		a.Fenced = d.Bool()
	}
	return d.Err()
}

// PingResponse reports store liveness.
type PingResponse struct {
	Healthy bool
	Devices uint64
	Entries uint64
}

// MarshalWire implements wire.Message.
func (m *PingResponse) MarshalWire(e *wire.Encoder) {
	e.Bool(m.Healthy)
	e.Uvarint(m.Devices)
	e.Uvarint(m.Entries)
}

// UnmarshalWire implements wire.Message.
func (m *PingResponse) UnmarshalWire(d *wire.Decoder) error {
	m.Healthy = d.Bool()
	m.Devices = d.Uvarint()
	m.Entries = d.Uvarint()
	return d.Err()
}

// Handler serves the state-store protocol. The store is loop-confined, so
// transports that dispatch off-loop (TCPServer) must wrap this with
// rpc.LoopHandler, exactly as for the controllers.
func (s *Store) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodReplicate:
			var req ReplicateRequest
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			return &ReplicateResponse{Acks: s.Replicate(req.Source, req.Entries)}, nil
		case MethodPing:
			return &PingResponse{
				Healthy: true,
				Devices: uint64(len(s.devices)),
				Entries: uint64(s.totalEntries()),
			}, nil
		default:
			return nil, fmt.Errorf("statestore %s: unknown method %q", s.name, method)
		}
	}
}
