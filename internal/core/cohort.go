package core

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
)

// Every controller cycle runs in explicit phases, mirroring the split the
// physics tick makes between the sharded server step and the serial
// aggregation pass:
//
//   - observe+decide (cycleKernel.runObserveDecide): the level decodes the
//     collected pull responses and aggregates them, evaluates the
//     three-band (or PID) control law and computes the full actuation plan
//     (per-server caps, per-child contract cuts). A controller's
//     observe+decide reads and writes only that controller's own fields,
//     so the phases of different controllers can run concurrently.
//   - act (cycleKernel.runAct): journal, alerts, telemetry, checkpoint and
//     the cap/uncap or contract RPCs. Acts touch shared state (the RPC
//     network, the alert sink, the metric registry) and therefore run
//     serially on the loop goroutine, in fixed device order.
//
// The CohortScheduler groups all controllers whose collection completes at
// the same virtual instant — all leaves share a 3 s period and all uppers
// a 9 s period, so whole levels of the hierarchy become ready together —
// and fans their observe+decide phases across a bounded worker pool before
// applying the act phases serially. Because observes are mutually
// independent and acts run in a fixed order at an unchanged virtual time,
// same-seed runs are byte-identical at any worker count and any
// GOMAXPROCS: the same contract the sharded physics tick provides. A
// controller built without a scheduler runs both phases itself at the
// completion instant (cycleKernel.complete), with the same result.

// phasedController is the phase surface the cycle kernel exposes to the
// scheduler. runObserveDecide may execute on a worker goroutine and must
// only touch the controller's own state; runAct always executes on the
// loop goroutine.
type phasedController interface {
	runObserveDecide(now time.Duration)
	runAct(now time.Duration)
}

// phasedCycle is one controller whose collection completed this instant.
type phasedCycle struct {
	order int // registration order — the fixed device order for acts
	ctrl  phasedController
}

// CohortScheduler batches same-instant controller cycles and runs their
// phases. It is loop-confined: submit and flush run on the loop goroutine.
// Worker goroutines live only inside a single flush event (the flush
// blocks on them), so no loop callback ever interleaves with an observe
// phase.
type CohortScheduler struct {
	loop    simclock.Loop
	workers int

	nextOrder int
	pending   []phasedCycle
	spare     []phasedCycle // the last flushed batch's storage: the next cohort collects into it
	armed     bool
	flushAt   simclock.Timer // the flush event, re-armed by each cohort
	onFlush   func()         // s.flush, bound once

	// The observe fan-out of the flush in progress: worker i observes chunk
	// i of batch at now. Each worker's function is bound once, so a flush
	// allocates nothing.
	fanOut []func()
	wg     sync.WaitGroup
	batch  []phasedCycle
	chunk  int
	now    time.Duration

	// telemetry (nil when disabled)
	tel *cohortInstr
}

// cohortInstr holds the scheduler's telemetry instruments.
type cohortInstr struct {
	flushes    *telemetry.Counter
	observeDur *telemetry.Histogram
	actDur     *telemetry.Histogram
	cohortSize *telemetry.Histogram
}

// PhaseBuckets are the latency-shaped histogram bounds (seconds) for the
// per-phase duration histograms: control phases run tens of microseconds
// to tens of milliseconds, far below the RPC-scale DefBuckets.
var PhaseBuckets = telemetry.LadderBuckets(5e-6, 0.25)

// CohortSizeBuckets are the bounds for the cohort-size histogram.
var CohortSizeBuckets = telemetry.ExpBuckets(1, 2, 11)

// NewCohortScheduler creates a scheduler fanning observe+decide phases
// over the given number of workers (values below 1 are treated as 1: the
// phases run on the loop goroutine, still batched per instant). The
// telemetry sink may be nil.
func NewCohortScheduler(loop simclock.Loop, workers int, tel *telemetry.Sink) *CohortScheduler {
	if workers < 1 {
		workers = 1
	}
	s := &CohortScheduler{loop: loop, workers: workers}
	s.onFlush = s.flush
	s.fanOut = make([]func(), workers)
	for i := range s.fanOut {
		s.fanOut[i] = func() { s.observeChunk(i) }
	}
	if tel.Enabled() {
		s.tel = &cohortInstr{
			flushes:    tel.Counter("dynamo_control_cohort_flushes_total"),
			observeDur: tel.Histogram("dynamo_control_phase_seconds", PhaseBuckets, "phase", "observe"),
			actDur:     tel.Histogram("dynamo_control_phase_seconds", PhaseBuckets, "phase", "act"),
			cohortSize: tel.Histogram("dynamo_control_cohort_size", CohortSizeBuckets),
		}
	}
	return s
}

// register assigns the next device-order index. Called from controller
// constructors; the construction order (leaves first, then uppers,
// topology order within each level) is the fixed act order.
func (s *CohortScheduler) register() int {
	n := s.nextOrder
	s.nextOrder++
	return n
}

// submit hands a completed collection to the scheduler: the cycle joins
// the cohort flushed at this same virtual instant.
func (s *CohortScheduler) submit(c phasedController, order int) {
	s.pending = append(s.pending, phasedCycle{order: order, ctrl: c})
	if !s.armed {
		s.armed = true
		s.loop.Arm(&s.flushAt, 0, s.onFlush)
	}
}

// flush runs the cohort that accumulated at the current instant: observe+
// decide fanned across the worker pool, acts serial in fixed device order.
func (s *CohortScheduler) flush() {
	// A submit during this flush joins the next cohort, in the other buffer.
	batch := s.pending
	s.pending, s.spare = s.spare[:0], batch
	s.armed = false
	if len(batch) == 0 {
		return
	}
	slices.SortFunc(batch, func(a, b phasedCycle) int { return cmp.Compare(a.order, b.order) })
	now := s.loop.Now()

	var tObserve time.Time
	if s.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		tObserve = time.Now()
	}
	s.runObserves(batch, now)
	var tAct time.Time
	if s.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		tAct = time.Now()
		s.tel.observeDur.Observe(tAct.Sub(tObserve).Seconds())
	}
	for _, pc := range batch {
		pc.ctrl.runAct(now)
	}
	if s.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		s.tel.actDur.Observe(time.Since(tAct).Seconds())
		s.tel.cohortSize.Observe(float64(len(batch)))
		s.tel.flushes.Inc()
	}
}

// runObserves executes the observe+decide phases of the batch across the
// worker pool. Each controller is observed exactly once by one goroutine;
// controllers are mutually independent, so results are byte-identical to
// the serial loop at any worker count.
func (s *CohortScheduler) runObserves(batch []phasedCycle, now time.Duration) {
	n := len(batch)
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, pc := range batch {
			pc.ctrl.runObserveDecide(now)
		}
		return
	}
	s.batch, s.chunk, s.now = batch, (n+w-1)/w, now
	for i := 0; i*s.chunk < n; i++ {
		s.wg.Add(1)
		go s.fanOut[i]()
	}
	s.wg.Wait()
}

// observeChunk runs the observe+decide phases of chunk i of the batch.
func (s *CohortScheduler) observeChunk(i int) {
	defer s.wg.Done()
	for _, pc := range s.batch[i*s.chunk : min((i+1)*s.chunk, len(s.batch))] {
		pc.ctrl.runObserveDecide(s.now)
	}
}
