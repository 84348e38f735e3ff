package core

// DecisionSummary is a JSON-friendly projection of a DecisionRecord, used
// by the /debug/state exposition endpoint.
type DecisionSummary struct {
	Cycle          uint64  `json:"cycle"`
	TimeSeconds    float64 `json:"time_seconds"`
	AggWatts       float64 `json:"agg_watts"`
	Valid          bool    `json:"valid"`
	Failures       int     `json:"failures,omitempty"`
	EffLimitWatts  float64 `json:"effective_limit_watts"`
	Action         string  `json:"action"`
	TargetWatts    float64 `json:"target_watts,omitempty"`
	ServersPlanned int     `json:"servers_planned,omitempty"`
	AchievedWatts  float64 `json:"achieved_watts,omitempty"`
	ShortfallWatts float64 `json:"shortfall_watts,omitempty"`
	DryRun         bool    `json:"dry_run,omitempty"`
}

func summarize(rec DecisionRecord) DecisionSummary {
	return DecisionSummary{
		Cycle:          rec.Cycle,
		TimeSeconds:    rec.Time.Seconds(),
		AggWatts:       float64(rec.Agg),
		Valid:          rec.Valid,
		Failures:       rec.Failures,
		EffLimitWatts:  float64(rec.EffLimit),
		Action:         rec.Action.String(),
		TargetWatts:    float64(rec.Target),
		ServersPlanned: rec.ServersPlanned,
		AchievedWatts:  float64(rec.Achieved),
		ShortfallWatts: float64(rec.Shortfall),
		DryRun:         rec.DryRun,
	}
}

// lastDecisions returns the journal's newest records (up to lastN,
// oldest-first) as summaries. lastN <= 0 means all retained records.
func lastDecisions(j *Journal, lastN int) []DecisionSummary {
	recs := j.newest(lastN)
	out := make([]DecisionSummary, len(recs))
	for i, r := range recs {
		out[i] = summarize(r)
	}
	return out
}

// ControllerStatus is a point-in-time snapshot of one controller, shaped
// for JSON exposition. Status methods are loop-confined like everything
// else on the controllers: call them from a loop callback (WallLoop.Call
// in the daemons).
type ControllerStatus struct {
	Device        string  `json:"device"`
	Level         string  `json:"level"` // "leaf" or "upper"
	Running       bool    `json:"running"`
	Cycles        uint64  `json:"cycles"`
	AggWatts      float64 `json:"agg_watts"`
	Valid         bool    `json:"valid"`
	LimitWatts    float64 `json:"limit_watts"`
	EffLimitWatts float64 `json:"effective_limit_watts"`
	ContractWatts float64 `json:"contract_watts,omitempty"`
	// CappedServers counts capped servers (leaf) or contracted children
	// (upper).
	CappedServers int      `json:"capped_servers"`
	CapEvents     uint64   `json:"cap_events"`
	UncapEvents   uint64   `json:"uncap_events"`
	Contracted    []string `json:"contracted_children,omitempty"`
	// ServiceWatts is the leaf's per-service power breakdown.
	ServiceWatts map[string]float64 `json:"service_watts,omitempty"`
	// Decisions holds the most recent decision records, oldest-first.
	Decisions []DecisionSummary `json:"decisions,omitempty"`
	// Events holds the most recent entries of the controller's event ring
	// (its alerts, failed and retried calls and contracts), rendered,
	// oldest-first. Only a controller with a
	// telemetry sink keeps them.
	Events []string `json:"events,omitempty"`
}

// status snapshots what every controller reports, with its last lastN
// decision records and events (lastN <= 0 returns all retained ones).
func (k *cycleKernel) status(lastN int) ControllerStatus {
	s := ControllerStatus{
		Device:        k.deviceID,
		Level:         k.kind,
		Running:       k.Running(),
		Cycles:        k.cycles,
		AggWatts:      float64(k.lastAgg),
		Valid:         k.lastValid,
		LimitWatts:    float64(k.limit),
		EffLimitWatts: float64(k.EffectiveLimit()),
		ContractWatts: float64(k.contract),
		CappedServers: k.cappedCount(),
		CapEvents:     k.capEvents,
		UncapEvents:   k.uncapEvents,
		Decisions:     lastDecisions(k.journal, lastN),
	}
	if k.tel != nil {
		s.Events = k.tel.recentEvents(lastN)
	}
	return s
}

// Status snapshots the leaf controller with its last lastN decision
// records and events (lastN <= 0 returns all retained ones).
// Loop-confined.
func (l *Leaf) Status(lastN int) ControllerStatus {
	s := l.status(lastN)
	s.ServiceWatts = map[string]float64{}
	for k, v := range l.ServiceBreakdown() {
		s.ServiceWatts[k] = float64(v)
	}
	return s
}

// Status snapshots the upper controller with its last lastN decision
// records and events (lastN <= 0 returns all retained ones).
// Loop-confined.
func (u *Upper) Status(lastN int) ControllerStatus {
	s := u.status(lastN)
	s.Contracted = u.ContractedChildren()
	return s
}
