package core

import (
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// WatchdogConfig configures the agent health checker (paper §III-E: "a
// script periodically checks the health of an agent and restarts the
// agents in case the agent crashes").
type WatchdogConfig struct {
	// Interval between health sweeps.
	Interval time.Duration
	// FailThreshold is consecutive failed pings before a restart.
	FailThreshold int
	// PingTimeout bounds each probe.
	PingTimeout time.Duration
	// Restart is invoked with the server ID to restart its agent; the
	// environment (simulator or init system) owns the mechanism.
	Restart func(serverID string)
	// Alerts receives restart notices.
	Alerts AlertFunc
	// RestartCooldown is the minimum spacing between successive restarts
	// of the same agent. A restart suppressed by the cooldown keeps its
	// miss count, so the agent is restarted at the first sweep past the
	// cooldown if it is still unhealthy. 0 means no spacing: an agent that
	// stays unhealthy is restarted every FailThreshold sweeps.
	RestartCooldown time.Duration
	// MaxRestartsPerSweep caps restarts issued in one sweep — the
	// restart-storm limiter for correlated outages (a partition is not
	// cured by restarting every agent behind it at once). Suppressed
	// agents keep their miss counts and retry next sweep. 0 = unlimited.
	MaxRestartsPerSweep int
	// Dial overrides how agent clients are dialed (fault-injection tests
	// wrap the network here). nil dials the in-proc network directly.
	Dial func(addr string) rpc.Client
}

func (c *WatchdogConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.Interval / 2
	}
}

// Watchdog pings a set of agents and restarts unresponsive ones.
type Watchdog struct {
	cfg  WatchdogConfig
	loop simclock.Loop

	clients map[string]rpc.Client
	order   []string
	misses  map[string]int
	ticker  *simclock.Ticker

	lastRestart   map[string]time.Duration
	sweepRestarts int

	restarts   uint64
	suppressed uint64
}

// NewWatchdog creates a watchdog over the agents addressed by server ID.
func NewWatchdog(loop simclock.Loop, net *rpc.Network, serverIDs []string, cfg WatchdogConfig) *Watchdog {
	cfg.fillDefaults()
	dial := cfg.Dial
	if dial == nil {
		dial = net.Dial
	}
	w := &Watchdog{
		cfg:         cfg,
		loop:        loop,
		clients:     map[string]rpc.Client{},
		misses:      map[string]int{},
		lastRestart: map[string]time.Duration{},
	}
	for _, id := range serverIDs {
		w.clients[id] = dial(AgentAddr(id))
		w.order = append(w.order, id)
	}
	w.ticker = simclock.NewTicker(loop, cfg.Interval, w.sweep)
	return w
}

// Start begins health sweeps.
func (w *Watchdog) Start() { w.ticker.Start() }

// Stop halts health sweeps.
func (w *Watchdog) Stop() { w.ticker.Stop() }

// Restarts returns how many agent restarts the watchdog has requested.
func (w *Watchdog) Restarts() uint64 { return w.restarts }

// Suppressed returns how many restart decisions were held back by the
// cooldown or the per-sweep storm limiter.
func (w *Watchdog) Suppressed() uint64 { return w.suppressed }

func (w *Watchdog) sweep() {
	// The per-sweep restart window spans this sweep's completions: ping
	// callbacks land (and restart decisions fire) before the next sweep
	// because PingTimeout < Interval.
	w.sweepRestarts = 0
	for _, id := range w.order {
		id := id
		w.clients[id].Call(agent.MethodPing, rpc.Empty, w.cfg.PingTimeout, func(resp []byte, err error) {
			healthy := false
			if err == nil {
				var pong agent.PingResponse
				if wire.Unmarshal(resp, &pong) == nil {
					healthy = pong.Healthy
				}
			}
			if healthy {
				w.misses[id] = 0
				return
			}
			w.misses[id]++
			if w.misses[id] < w.cfg.FailThreshold {
				return
			}
			now := w.loop.Now()
			if w.cfg.MaxRestartsPerSweep > 0 && w.sweepRestarts >= w.cfg.MaxRestartsPerSweep {
				// Storm limiter: keep the miss count so the restart fires
				// on a later sweep if the agent stays unhealthy.
				w.suppressed++
				return
			}
			if cd := w.cfg.RestartCooldown; cd > 0 {
				if last, seen := w.lastRestart[id]; seen && now-last < cd {
					w.suppressed++
					return
				}
			}
			w.misses[id] = 0
			w.restarts++
			w.sweepRestarts++
			w.lastRestart[id] = now
			w.cfg.Alerts.emit(now, AlertWarning, "watchdog",
				"agent %s unresponsive; restarting", id)
			if w.cfg.Restart != nil {
				w.cfg.Restart(id)
			}
		})
	}
}
