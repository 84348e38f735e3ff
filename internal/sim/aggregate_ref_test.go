package sim

import "time"

// aggregateFull recomputes every device from scratch: one bottom-up pass
// over the post-order device index — O(total nodes) for the whole
// hierarchy. It is the reference the incremental pass is checked (and
// benchmarked) against; summation order is fixed by the index, so results
// are identical at any worker count.
//
//dynamo:serial
func (s *Sim) aggregateFull(now time.Duration) {
	dirty := s.drainDirty()
	for i := range s.devDirty {
		s.devDirty[i] = false
	}
	for i := range s.agg {
		s.snap.dev[i] = s.recomputeDev(i, now)
	}
	s.commit(now, dirty, len(s.agg))
	s.statFullRebuilds++
}

// runAllDirty is Run stepped tick by tick with every device marked dirty
// before each step, so every pass of aggregateIncremental recomputes the
// whole hierarchy in aggregateFull's order: a full-rebuild twin of a run.
func runAllDirty(s *Sim, d time.Duration) {
	for end := s.Loop.Now() + d; s.Loop.Now() < end; {
		for i := range s.devDirty {
			s.devDirty[i] = true
		}
		s.Run(min(s.Cfg.TickInterval, end-s.Loop.Now()))
	}
}
