package statestore

import (
	"errors"

	"dynamo/internal/wire"
)

// DefaultSnapshotEvery is how many delta appends a writer makes before it
// must write a full snapshot again. With the controllers' 512-record
// journal ring this keeps each retained window at ~128 entries while a
// snapshot still lands often enough that a replica joining cold (or
// resetting after falling behind) replays at most a few minutes of
// deltas.
const DefaultSnapshotEvery = 128

// Writer is a controller's handle on its own device stream in a local
// store. It owns the epoch/sequence bookkeeping so the controller's act
// phase reduces to: decide snapshot-vs-delta via SnapshotDue, encode the
// payload into Encoder, Append. Writers are loop-confined like the store.
//
// Acquisition is lazy: the epoch is claimed on the first Append, not at
// construction, so building a standby controller (whose writer stays
// silent until promotion) does not fence the active primary.
type Writer struct {
	store  *Store
	device string
	id     string

	epoch    uint64
	next     uint64 // next seq to append; 0 = not yet acquired
	sinceSnp int
	every    int
	fenced   bool
}

// NewWriter creates a writer for device. id names the writer (for
// ownership bookkeeping and traces); distinct instances — a primary and
// its backup — should use distinct ids.
func (s *Store) NewWriter(device, id string) *Writer {
	return &Writer{store: s, device: device, id: id, every: DefaultSnapshotEvery}
}

// SetSnapshotEvery overrides the snapshot cadence (n <= 0 keeps the
// default). Call before the first Append.
func (w *Writer) SetSnapshotEvery(n int) {
	if n > 0 {
		w.every = n
	}
}

// Epoch returns the writer's granted epoch (0 before the first append).
func (w *Writer) Epoch() uint64 { return w.epoch }

// Fenced reports whether an append was rejected because the stream was
// adopted by a newer epoch — this writer belongs to a zombie controller
// and must not actuate further.
func (w *Writer) Fenced() bool { return w.fenced }

// SnapshotDue reports whether the next append must be a full snapshot:
// the first append of a stream (or after adoption) always is, and then
// every SnapshotEvery deltas.
func (w *Writer) SnapshotDue() bool {
	return w.next == 0 || w.sinceSnp >= w.every
}

// Encoder returns the store's payload encoder, emptied. A writer encodes
// its next payload into it and passes Bytes to Append. Every writer of the
// store shares the one encoder (they all run on the store's loop), so the
// buffer a full snapshot grows is held once per store, not once per
// controller.
func (w *Writer) Encoder() *wire.Encoder {
	e := &w.store.enc
	e.Reset()
	return e
}

// Append writes one checkpoint entry, acquiring the stream on first use.
// The entry keeps a copy of payload, exactly its size, so the caller may
// reuse payload's storage (Encoder's bytes are only valid until the next
// Encoder call). On ErrFenced the writer latches Fenced and refuses
// further appends.
//
//dynamo:serial
func (w *Writer) Append(kind Kind, cycles uint64, payload []byte) error {
	if w.fenced {
		return ErrFenced
	}
	if w.next == 0 {
		w.epoch, w.next = w.store.Acquire(w.device, w.id)
	}
	err := w.store.Append(Entry{
		Device:  w.device,
		Epoch:   w.epoch,
		Seq:     w.next,
		Kind:    kind,
		Cycles:  cycles,
		Payload: append(make([]byte, 0, len(payload)), payload...),
	})
	if err != nil {
		if errors.Is(err, ErrFenced) {
			w.fenced = true
		}
		return err
	}
	w.next++
	if kind == KindSnapshot {
		w.sinceSnp = 0
	} else {
		w.sinceSnp++
	}
	return nil
}

// Install points the writer at an adopted stream position: the promotion
// path calls it with the AdoptResult's epoch and next sequence number so
// the backup continues the exact stream it replayed. The first append
// after Install is forced to be a snapshot, which also heals any replica
// that lost the tail of the old primary's stream.
func (w *Writer) Install(epoch, nextSeq uint64) {
	w.epoch = epoch
	w.next = nextSeq
	w.sinceSnp = w.every
	w.fenced = false
}
