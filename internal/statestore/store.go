// Package statestore implements Dynamo's replicated controller state
// store — the stand-in for the paper's shared state behind the redundant
// backup controller (§III-E: "a redundant backup controller that resides
// in a different location and can take control as soon as the primary
// controller fails"). Each controller continuously checkpoints its
// recoverable state (decision-journal records, cycle counter, band/PID
// internals, last plan) into a per-device, epoch-fenced, append-only
// stream. Streams replicate to peer stores over the normal RPC layer via
// cumulative-ack log shipping, so a backup on another event loop, process,
// or host holds a prefix-consistent copy in its own replica, which it
// adopts from on promotion (Store.Adopt).
//
// Three rules give the store its guarantees:
//
//   - Epoch fencing: every stream has an owning epoch. Adoption bumps the
//     epoch, so a zombie primary's late appends (bearing the old epoch)
//     are rejected rather than interleaved with the new owner's.
//   - Snapshot-plus-delta: a writer periodically appends a full snapshot
//     of its journal; the store retains only the latest snapshot and the
//     deltas after it, and a replica that has fallen behind the retained
//     window catches up by resetting to the snapshot.
//   - In-order apply: a replica applies only the entry whose sequence
//     number it expects next (or a newer snapshot) and acks cumulatively,
//     so dropped, duplicated, or reordered replication batches cannot
//     create gaps or duplicates — the shipper simply rewinds to the ack.
//
// The store itself never decodes checkpoint payloads; they are opaque
// bytes. Package core defines the payload format, which keeps the
// dependency one-way (core imports statestore).
package statestore

import (
	"errors"
	"fmt"
	"sort"

	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// ErrFenced is returned for an append whose epoch has been superseded by
// an adoption: the writer is a zombie and must stop.
var ErrFenced = errors.New("statestore: append fenced by newer epoch")

// ErrSeqGap is returned for a local append that does not continue the
// stream (writer bookkeeping bug; replicas handle gaps via acks instead).
var ErrSeqGap = errors.New("statestore: append out of sequence")

// Kind distinguishes snapshot entries from deltas.
type Kind uint8

const (
	// KindDelta carries the state written by one control cycle.
	KindDelta Kind = 0
	// KindSnapshot carries the writer's complete recoverable state; the
	// store truncates everything before it.
	KindSnapshot Kind = 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindSnapshot {
		return "snapshot"
	}
	return "delta"
}

// Entry is one element of a device's checkpoint stream.
type Entry struct {
	// Device names the controller's protected power device.
	Device string
	// Epoch is the stream ownership epoch the writer held at append time.
	Epoch uint64
	// Seq is the entry's position in the stream, starting at 1.
	Seq uint64
	// Kind marks snapshots vs deltas.
	Kind Kind
	// Cycles is the writer's decision-cycle counter at append time, kept
	// outside the opaque payload so the store can report recovery points
	// without decoding controller state.
	Cycles uint64
	// Payload is the controller checkpoint, opaque to the store.
	Payload []byte
}

// AdoptResult is what a promoted backup receives: the retained stream
// (latest snapshot plus deltas, oldest first) and the new ownership epoch.
type AdoptResult struct {
	// Found is false when the device had no stream (the primary never
	// checkpointed); the backup then starts fresh.
	Found bool
	// Epoch is the adopter's newly granted epoch.
	Epoch uint64
	// NextSeq is where the adopter's writer must continue the stream.
	NextSeq uint64
	// Cycles is the last checkpointed decision-cycle counter.
	Cycles uint64
	// Entries is the retained stream, oldest first.
	Entries []Entry
}

// stream is one device's retained checkpoint window.
type stream struct {
	epoch    uint64
	writer   string
	firstSeq uint64 // seq of entries[0]; == nextSeq when empty
	nextSeq  uint64
	entries  []Entry
}

// DefaultMaxRetain is the per-device retained-entry bound installed by
// NewStore. See Store.MaxRetain.
const DefaultMaxRetain = 4096

// Store holds the checkpoint streams of many devices. Like the
// controllers, it is confined to its event loop: all methods (including
// the RPC handler, which transports wrap with rpc.LoopHandler) must run on
// loop callbacks.
type Store struct {
	loop simclock.Loop
	name string

	streams map[string]*stream
	devices []string // sorted, for deterministic iteration

	// peers maps each registered replication peer to its per-device
	// cumulative acks (the NextSeq each ack carried). Registered peers
	// gate compaction: pre-snapshot history is retained until every
	// peer's ack passes the snapshot, so a lagging replica can catch up
	// on deltas instead of a snapshot reset. With no registered peers a
	// snapshot truncates eagerly — the original behavior.
	peers map[string]map[string]uint64

	// MaxRetain bounds retained entries per device when a registered peer
	// stops acking (dead or partitioned): once a stream holds more than
	// MaxRetain entries, it is force-truncated at its newest snapshot
	// regardless of acks, and the lagging peer heals through the
	// snapshot catch-up path instead. 0 disables the bound. NewStore
	// installs DefaultMaxRetain.
	MaxRetain int

	// enc is the scratch every writer encodes its payloads through
	// (Writer.Encoder); its bytes are copied into each entry.
	enc wire.Encoder

	tel *storeInstr
}

// storeInstr holds the store's telemetry instruments (nil when disabled).
type storeInstr struct {
	appends   [2]*telemetry.Counter // indexed by Kind
	fenced    *telemetry.Counter
	adoptions *telemetry.Counter
	applied   *telemetry.Counter
	entries   *telemetry.Gauge
}

// NewStore creates a store. name labels its telemetry series so a process
// hosting several stores (e.g. tests) keeps them distinguishable; the sink
// may be nil, which disables all instrumentation.
func NewStore(loop simclock.Loop, name string, tel *telemetry.Sink) *Store {
	s := &Store{
		loop: loop, name: name,
		streams:   map[string]*stream{},
		peers:     map[string]map[string]uint64{},
		MaxRetain: DefaultMaxRetain,
	}
	if tel.Enabled() {
		lb := []string{"store", name}
		s.tel = &storeInstr{
			fenced:    tel.Counter("dynamo_statestore_fenced_appends_total", lb...),
			adoptions: tel.Counter("dynamo_statestore_adoptions_total", lb...),
			applied:   tel.Counter("dynamo_statestore_replicated_entries_total", lb...),
			entries:   tel.Gauge("dynamo_statestore_entries", lb...),
		}
		s.tel.appends[KindDelta] = tel.Counter("dynamo_statestore_checkpoints_total",
			"store", name, "kind", "delta")
		s.tel.appends[KindSnapshot] = tel.Counter("dynamo_statestore_checkpoints_total",
			"store", name, "kind", "snapshot")
	}
	return s
}

// Name returns the store's telemetry label.
func (s *Store) Name() string { return s.name }

// get returns the device's stream, creating an empty one (epoch 0,
// unowned) if needed — the shape a pure replica starts from.
func (s *Store) get(device string) *stream {
	st := s.streams[device]
	if st == nil {
		st = &stream{firstSeq: 1, nextSeq: 1}
		s.streams[device] = st
		s.devices = append(s.devices, device)
		sort.Strings(s.devices)
	}
	return st
}

// Devices returns the known device names, sorted.
func (s *Store) Devices() []string {
	out := make([]string, len(s.devices))
	copy(out, s.devices)
	return out
}

// Epoch returns the device's current ownership epoch (0 = never owned).
func (s *Store) Epoch(device string) uint64 {
	if st := s.streams[device]; st != nil {
		return st.epoch
	}
	return 0
}

// NextSeq returns the sequence number the device's stream expects next
// (1 for an unknown device).
func (s *Store) NextSeq(device string) uint64 {
	if st := s.streams[device]; st != nil {
		return st.nextSeq
	}
	return 1
}

// Acquire grants stream ownership to writer, bumping the epoch, and
// returns the new epoch and the next sequence number. Writers call it
// lazily on their first append; re-acquiring always fences any previous
// owner.
func (s *Store) Acquire(device, writer string) (epoch, nextSeq uint64) {
	st := s.get(device)
	st.epoch++
	st.writer = writer
	return st.epoch, st.nextSeq
}

// Append appends one entry written by the stream's current owner. The
// entry must bear the current epoch (else ErrFenced) and the expected
// sequence number (else ErrSeqGap). A snapshot truncates everything
// before it.
func (s *Store) Append(e Entry) error {
	st := s.get(e.Device)
	if e.Epoch != st.epoch {
		if s.tel != nil {
			s.tel.fenced.Inc()
		}
		return fmt.Errorf("%w (entry epoch %d, stream epoch %d)", ErrFenced, e.Epoch, st.epoch)
	}
	if e.Seq != st.nextSeq {
		return fmt.Errorf("%w (entry seq %d, want %d)", ErrSeqGap, e.Seq, st.nextSeq)
	}
	s.apply(st, e)
	if s.tel != nil {
		s.tel.appends[e.Kind&1].Inc()
		s.tel.entries.Set(float64(s.totalEntries()))
	}
	return nil
}

// apply commits an entry already validated against st. Retained entries
// are always seq-contiguous: a snapshot arriving out of sequence (replica
// catch-up) resets the stream, while an in-sequence snapshot is appended
// and compaction decides how much history before it may be dropped.
func (s *Store) apply(st *stream, e Entry) {
	if e.Kind == KindSnapshot && e.Seq != st.nextSeq {
		st.entries = append(st.entries[:0], e)
		st.firstSeq = e.Seq
		st.nextSeq = e.Seq + 1
		return
	}
	st.entries = append(st.entries, e)
	st.nextSeq = e.Seq + 1
	if e.Kind == KindSnapshot {
		s.compact(e.Device, st)
	}
}

// RegisterPeer declares a replication peer whose cumulative acks gate
// compaction; NewShipper registers its peers automatically. Until the
// peer acks past a snapshot, the history before that snapshot is
// retained so the peer can catch up on deltas.
func (s *Store) RegisterPeer(name string) {
	if _, ok := s.peers[name]; !ok {
		s.peers[name] = map[string]uint64{}
	}
}

// UnregisterPeer removes a peer from compaction gating and re-compacts
// every stream its lagging acks may have been holding back.
func (s *Store) UnregisterPeer(name string) {
	if _, ok := s.peers[name]; !ok {
		return
	}
	delete(s.peers, name)
	for _, dev := range s.devices {
		s.compact(dev, s.streams[dev])
	}
	if s.tel != nil {
		s.tel.entries.Set(float64(s.totalEntries()))
	}
}

// PeerAcked records a peer's cumulative ack for one device (the NextSeq
// it reported) and compacts the device's stream — a late ack may newly
// cover a snapshot. The shipper calls this as acks arrive.
func (s *Store) PeerAcked(peer, device string, nextSeq uint64) {
	acks, ok := s.peers[peer]
	if !ok {
		return
	}
	if nextSeq > acks[device] {
		acks[device] = nextSeq
	}
	if st := s.streams[device]; st != nil {
		s.compact(device, st)
		if s.tel != nil {
			s.tel.entries.Set(float64(s.totalEntries()))
		}
	}
}

// compact drops retained history that is no longer needed: everything
// before the newest snapshot that every registered peer's cumulative ack
// has passed. With no registered peers every snapshot qualifies, so the
// stream collapses to its latest snapshot plus subsequent deltas (the
// original eager behavior). When MaxRetain is exceeded — a registered
// peer stopped acking — the stream is force-truncated at its newest
// snapshot and the peer falls back to snapshot catch-up.
func (s *Store) compact(device string, st *stream) {
	if len(st.entries) == 0 {
		return
	}
	// floor: entries with Seq < floor are acked by every registered peer.
	floor := st.nextSeq
	for _, acks := range s.peers {
		if next := acks[device]; next < floor {
			floor = next
		}
	}
	cut := -1
	forced := s.MaxRetain > 0 && len(st.entries) > s.MaxRetain
	for i := len(st.entries) - 1; i >= 0; i-- {
		if st.entries[i].Kind != KindSnapshot {
			continue
		}
		if st.entries[i].Seq < floor || forced {
			cut = i
			break
		}
	}
	if cut <= 0 {
		return
	}
	st.entries = append(st.entries[:0], st.entries[cut:]...)
	st.firstSeq = st.entries[0].Seq
}

// EntriesFrom returns a copy of the retained entries with Seq >= from
// (clamped up to the retention window: a caller behind the window gets the
// latest snapshot and everything after it) plus the stream's next
// sequence number.
func (s *Store) EntriesFrom(device string, from uint64) ([]Entry, uint64) {
	st := s.streams[device]
	if st == nil {
		return nil, 1
	}
	if from < st.firstSeq {
		from = st.firstSeq
	}
	idx := int(from - st.firstSeq)
	if idx >= len(st.entries) {
		return nil, st.nextSeq
	}
	out := make([]Entry, len(st.entries)-idx)
	copy(out, st.entries[idx:])
	return out, st.nextSeq
}

// Adopt transfers stream ownership to writer (bumping the epoch, fencing
// the previous owner) and returns the retained stream for replay. It is
// the one adoption path: a promoted backup adopts from the replica in its
// own process, on the loop goroutine.
func (s *Store) Adopt(device, writer string) AdoptResult {
	st := s.streams[device]
	if st == nil {
		epoch, next := s.Acquire(device, writer)
		return AdoptResult{Found: false, Epoch: epoch, NextSeq: next}
	}
	st.epoch++
	st.writer = writer
	res := AdoptResult{
		Found:   len(st.entries) > 0,
		Epoch:   st.epoch,
		NextSeq: st.nextSeq,
	}
	if n := len(st.entries); n > 0 {
		res.Cycles = st.entries[n-1].Cycles
		res.Entries = make([]Entry, n)
		copy(res.Entries, st.entries)
	}
	if s.tel != nil {
		s.tel.adoptions.Inc()
	}
	return res
}

// DeviceAck is a replica's cumulative acknowledgement for one device.
type DeviceAck struct {
	Device string
	// NextSeq is the sequence number the replica expects next; the
	// shipper resends from here, which heals drops, and re-sends of
	// already-applied entries are ignored, which heals duplicates.
	NextSeq uint64
	// Epoch is the replica's current epoch for the device.
	Epoch uint64
	// Fenced is true when entries were rejected because the replica has
	// seen a newer epoch — the sender is a zombie and should stop.
	Fenced bool
}

// Replicate applies a batch of shipped entries. Per device it accepts, in
// order, only the entry it expects next — or a snapshot from the future,
// which resets the stream (snapshot catch-up after falling behind the
// sender's retention window). Entries bearing an epoch older than the
// replica's are rejected as fenced. Returns one cumulative ack per device
// that appeared in the batch.
func (s *Store) Replicate(source string, entries []Entry) []DeviceAck {
	touched := map[string]*DeviceAck{}
	var order []string
	for _, e := range entries {
		st := s.get(e.Device)
		ack := touched[e.Device]
		if ack == nil {
			ack = &DeviceAck{Device: e.Device}
			touched[e.Device] = ack
			order = append(order, e.Device)
		}
		switch {
		case e.Epoch < st.epoch:
			ack.Fenced = true
			if s.tel != nil {
				s.tel.fenced.Inc()
			}
		case e.Seq == st.nextSeq:
			if e.Epoch > st.epoch {
				st.epoch = e.Epoch
				st.writer = source
			}
			s.apply(st, e)
			if s.tel != nil {
				s.tel.applied.Inc()
			}
		case e.Kind == KindSnapshot && e.Seq > st.nextSeq:
			// Catch-up: we fell behind the sender's retention window;
			// reset to its snapshot.
			if e.Epoch > st.epoch {
				st.epoch = e.Epoch
				st.writer = source
			}
			s.apply(st, e)
			if s.tel != nil {
				s.tel.applied.Inc()
			}
		default:
			// Duplicate (Seq < nextSeq) or gap (Seq > nextSeq): ignore;
			// the cumulative ack tells the shipper where to resume.
		}
	}
	acks := make([]DeviceAck, 0, len(order))
	for _, dev := range order {
		st := s.streams[dev]
		ack := touched[dev]
		ack.NextSeq = st.nextSeq
		ack.Epoch = st.epoch
		acks = append(acks, *ack)
	}
	if s.tel != nil {
		s.tel.entries.Set(float64(s.totalEntries()))
	}
	return acks
}

// totalEntries counts retained entries across all streams.
func (s *Store) totalEntries() int {
	n := 0
	for _, st := range s.streams {
		n += len(st.entries)
	}
	return n
}
