package core

import (
	"errors"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/statestore"
	"dynamo/internal/wire"
)

// This file defines the controller checkpoint payload written into the
// replicated state store (internal/statestore) and the replay that turns
// an adopted stream back into a controller's recoverable state. The store
// treats payloads as opaque bytes; this is the only place that knows
// their format.
//
// Checkpoint writes are act-phase effects: they happen on the loop
// goroutine, serially and in fixed device order, right after the journal
// write of the same cycle. That ordering rule is what keeps the
// determinism golden sweep byte-identical with checkpointing enabled —
// the store mutates in exactly the same sequence at any ControlWorkers or
// GOMAXPROCS setting, and no checkpoint work happens inside the parallel
// observe phase.

// ControllerCheckpoint is one checkpoint payload: the recoverable state of
// a Leaf or Upper at the end of one act phase. A delta carries the single
// decision record of that cycle; a snapshot carries the full journal ring.
// Both carry the live internals (cycle counter, last action, contract,
// PID state) so the latest entry alone restores them.
type ControllerCheckpoint struct {
	// Cycles is the decision-cycle counter after this cycle.
	Cycles uint64
	// LastAction is the band/PID decision of this cycle (the "last plan"
	// the hysteresis logic consults next cycle).
	LastAction Action
	// Contract is the contractual limit imposed by the parent (0 = none).
	Contract power.Watts
	// PID internals (zero when the controller runs three-band control).
	PIDIntegral float64
	PIDLast     time.Duration
	PIDEngaged  bool
	PIDStarted  bool
	// Records is the journal payload: the cycle's record (delta) or the
	// full ring (snapshot), oldest first.
	Records []DecisionRecord
}

// maxCheckpointRecords bounds decoded record counts against corrupt
// frames; journals retain 512 records, so this is generous.
const maxCheckpointRecords = 1 << 14

// minRecordLen is the fewest bytes one encoded DecisionRecord takes:
// seven one-byte varints and bools and five float64s. A record count the
// bytes left cannot hold is rejected before the records are allocated.
const minRecordLen = 7 + 5*8

// MarshalWire implements wire.Message.
func (c *ControllerCheckpoint) MarshalWire(e *wire.Encoder) {
	c.marshalInternals(e)
	e.Uvarint(uint64(len(c.Records)))
	for i := range c.Records {
		encodeDecisionRecord(e, &c.Records[i])
	}
}

// marshalInternals encodes every field but Records.
func (c *ControllerCheckpoint) marshalInternals(e *wire.Encoder) {
	e.Uvarint(c.Cycles)
	e.Uvarint(uint64(c.LastAction))
	e.Float64(float64(c.Contract))
	e.Float64(c.PIDIntegral)
	e.Varint(int64(c.PIDLast))
	e.Bool(c.PIDEngaged)
	e.Bool(c.PIDStarted)
}

// UnmarshalWire implements wire.Message.
func (c *ControllerCheckpoint) UnmarshalWire(d *wire.Decoder) error {
	c.Cycles = d.Uvarint()
	c.LastAction = Action(d.Uvarint())
	c.Contract = power.Watts(d.Float64())
	c.PIDIntegral = d.Float64()
	c.PIDLast = time.Duration(d.Varint())
	c.PIDEngaged = d.Bool()
	c.PIDStarted = d.Bool()
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if n > maxCheckpointRecords || n > uint64(d.Remaining()/minRecordLen) {
		return errors.New("core: checkpoint record count exceeds limit or frame")
	}
	c.Records = make([]DecisionRecord, n)
	for i := range c.Records {
		decodeDecisionRecord(d, &c.Records[i])
	}
	return d.Err()
}

// encodeDecisionRecord appends one journal record to the encoder.
func encodeDecisionRecord(e *wire.Encoder, r *DecisionRecord) {
	e.Uvarint(r.Cycle)
	e.Varint(int64(r.Time))
	e.Float64(float64(r.Agg))
	e.Bool(r.Valid)
	e.Varint(int64(r.Failures))
	e.Float64(float64(r.EffLimit))
	e.Uvarint(uint64(r.Action))
	e.Float64(float64(r.Target))
	e.Varint(int64(r.ServersPlanned))
	e.Float64(float64(r.Achieved))
	e.Float64(float64(r.Shortfall))
	e.Bool(r.DryRun)
}

// decodeDecisionRecord reads one journal record.
func decodeDecisionRecord(d *wire.Decoder, r *DecisionRecord) {
	r.Cycle = d.Uvarint()
	r.Time = time.Duration(d.Varint())
	r.Agg = power.Watts(d.Float64())
	r.Valid = d.Bool()
	r.Failures = int(d.Varint())
	r.EffLimit = power.Watts(d.Float64())
	r.Action = Action(d.Uvarint())
	r.Target = power.Watts(d.Float64())
	r.ServersPlanned = int(d.Varint())
	r.Achieved = power.Watts(d.Float64())
	r.Shortfall = power.Watts(d.Float64())
	r.DryRun = d.Bool()
}

// ReplayCheckpoints folds an adopted entry stream (oldest first: latest
// snapshot, then deltas) into the journal records it represents plus the
// final checkpointed internals. Entries that fail to decode are skipped —
// a torn tail must not prevent adoption of the consistent prefix. ok is
// false when no entry decoded.
func ReplayCheckpoints(entries []statestore.Entry) (recs []DecisionRecord, last ControllerCheckpoint, ok bool) {
	for i := range entries {
		var ck ControllerCheckpoint
		if err := wire.Unmarshal(entries[i].Payload, &ck); err != nil {
			continue
		}
		if entries[i].Kind == statestore.KindSnapshot {
			recs = recs[:0]
		}
		recs = append(recs, ck.Records...)
		ck.Records = nil
		last = ck
		ok = true
	}
	return recs, last, ok
}

// encodeCheckpoint encodes one cycle's checkpoint into e: the bytes
// wire.Marshal gives for a ControllerCheckpoint whose Records are the
// whole journal (snapshot) or the cycle's own record (delta), read
// straight from the journal's ring instead of copied out of it.
func encodeCheckpoint(e *wire.Encoder, snapshot bool, j *Journal, rec *DecisionRecord, cycles uint64,
	lastAction Action, contract power.Watts, pid *pidState) {
	ck := ControllerCheckpoint{
		Cycles:     cycles,
		LastAction: lastAction,
		Contract:   contract,
	}
	if pid != nil {
		ck.PIDIntegral = pid.integral
		ck.PIDLast = pid.last
		ck.PIDEngaged = pid.engaged
		ck.PIDStarted = pid.started
	}
	ck.marshalInternals(e)
	if !snapshot {
		e.Uvarint(1)
		encodeDecisionRecord(e, rec)
		return
	}
	older, newer := j.ordered()
	e.Uvarint(uint64(len(older) + len(newer)))
	for i := range older {
		encodeDecisionRecord(e, &older[i])
	}
	for i := range newer {
		encodeDecisionRecord(e, &newer[i])
	}
}

// writeCheckpoint appends one cycle's checkpoint to the writer. It is
// shared by Leaf and Upper and runs in the act phase. The payload is
// encoded through the store's one encoder and copied once, into the entry
// the store keeps. The returned fenced flag is true when the stream has
// been adopted by a promoted backup — the calling controller is a zombie
// and must stop actuating.
//
//dynamo:serial
func writeCheckpoint(w *statestore.Writer, j *Journal, rec *DecisionRecord, cycles uint64,
	lastAction Action, contract power.Watts, pid *pidState) (fenced bool, err error) {
	if w == nil || w.Fenced() {
		return w != nil && w.Fenced(), nil
	}
	snapshot := w.SnapshotDue()
	kind := statestore.KindDelta
	if snapshot {
		kind = statestore.KindSnapshot
	}
	e := w.Encoder()
	encodeCheckpoint(e, snapshot, j, rec, cycles, lastAction, contract, pid)
	if err := w.Append(kind, cycles, e.Bytes()); err != nil {
		if errors.Is(err, statestore.ErrFenced) {
			return true, err
		}
		return false, err
	}
	return false, nil
}
