// Package config defines the JSON deployment configuration for a
// consolidated suite controller — the paper's production packaging where
// "all controller instances for neighboring devices in a data center
// suite are consolidated into one binary with each controller instance
// being a thread (there are around 100 threads in total)" (§IV).
//
// A config names every controller in one suite: leaf controllers with
// their agent endpoints, and upper controllers whose children are either
// sibling controllers in the same process (referenced by device name) or
// remote controllers (referenced by TCP address).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Suite is the root configuration document.
type Suite struct {
	// Name identifies the suite (for logs).
	Name string `json:"name"`
	// Controllers lists every controller instance to run.
	Controllers []Controller `json:"controllers"`
}

// Controller configures one controller instance.
type Controller struct {
	// Device is the protected power device's identifier; unique within
	// the suite.
	Device string `json:"device"`
	// Level is "leaf" or "upper".
	Level string `json:"level"`
	// LimitWatts is the physical breaker limit.
	LimitWatts float64 `json:"limit_watts"`
	// QuotaWatts is the planned peak (0: none).
	QuotaWatts float64 `json:"quota_watts,omitempty"`
	// PollSeconds overrides the pull cycle (0: paper default — 3 s for
	// leaves, 9 s for uppers).
	PollSeconds float64 `json:"poll_seconds,omitempty"`
	// Agents lists a leaf's downstream agents.
	Agents []AgentEntry `json:"agents,omitempty"`
	// NonServerWatts is constant draw on a leaf's breaker from devices
	// that have no agent, such as top-of-rack switches: added to the
	// aggregate, never capped (paper §III-E).
	NonServerWatts float64 `json:"non_server_watts,omitempty"`
	// Children lists an upper controller's downstream controllers.
	Children []ChildEntry `json:"children,omitempty"`
	// Bands optionally overrides the three-band thresholds.
	Bands *Bands `json:"bands,omitempty"`
	// DryRun computes decisions without actuating.
	DryRun bool `json:"dry_run,omitempty"`
	// UsePID selects the PID capping algorithm for a leaf.
	UsePID bool `json:"use_pid,omitempty"`
	// Listen optionally exposes this controller on a TCP address so an
	// out-of-suite parent can pull it.
	Listen string `json:"listen,omitempty"`
}

// AgentEntry is one downstream agent endpoint.
type AgentEntry struct {
	ID      string `json:"id"`
	Service string `json:"service"`
	// Addr is the agent's TCP address ("host:port").
	Addr string `json:"addr"`
}

// ChildEntry is one downstream controller reference.
type ChildEntry struct {
	// Device names a sibling controller in this suite; mutually
	// exclusive with Addr.
	Device string `json:"device,omitempty"`
	// Addr is a remote controller's TCP address.
	Addr string `json:"addr,omitempty"`
	// QuotaWatts is the child's planned peak for punish-offender-first.
	QuotaWatts float64 `json:"quota_watts,omitempty"`
}

// Bands mirrors core.BandConfig in JSON.
type Bands struct {
	CapThresholdFrac   float64 `json:"cap_threshold_frac"`
	CapTargetFrac      float64 `json:"cap_target_frac"`
	UncapThresholdFrac float64 `json:"uncap_threshold_frac"`
}

// Load reads and validates a suite configuration file.
func Load(path string) (*Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(raw)
}

// Parse decodes and validates a suite configuration document.
func Parse(raw []byte) (*Suite, error) {
	var s Suite
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural invariants: unique device names, resolvable
// sibling references, level-appropriate fields, and positive limits.
func (s *Suite) Validate() error {
	if len(s.Controllers) == 0 {
		return fmt.Errorf("config: suite %q has no controllers", s.Name)
	}
	devices := map[string]string{} // device -> level
	for _, c := range s.Controllers {
		if c.Device == "" {
			return fmt.Errorf("config: controller with empty device name")
		}
		if _, dup := devices[c.Device]; dup {
			return fmt.Errorf("config: duplicate device %q", c.Device)
		}
		if c.Level != "leaf" && c.Level != "upper" {
			return fmt.Errorf("config: device %q has unknown level %q", c.Device, c.Level)
		}
		if c.LimitWatts <= 0 {
			return fmt.Errorf("config: device %q needs a positive limit", c.Device)
		}
		if c.NonServerWatts < 0 || (c.NonServerWatts != 0 && c.Level != "leaf") {
			return fmt.Errorf("config: device %q: non_server_watts must be non-negative and only on a leaf", c.Device)
		}
		devices[c.Device] = c.Level
	}
	for _, c := range s.Controllers {
		switch c.Level {
		case "leaf":
			if len(c.Children) > 0 {
				return fmt.Errorf("config: leaf %q must not declare children", c.Device)
			}
			if len(c.Agents) == 0 {
				return fmt.Errorf("config: leaf %q has no agents", c.Device)
			}
			for _, a := range c.Agents {
				if a.ID == "" || a.Addr == "" {
					return fmt.Errorf("config: leaf %q has an agent without id/addr", c.Device)
				}
			}
		case "upper":
			if len(c.Agents) > 0 {
				return fmt.Errorf("config: upper %q must not declare agents", c.Device)
			}
			if len(c.Children) == 0 {
				return fmt.Errorf("config: upper %q has no children", c.Device)
			}
			for _, ch := range c.Children {
				switch {
				case ch.Device != "" && ch.Addr != "":
					return fmt.Errorf("config: upper %q child declares both device and addr", c.Device)
				case ch.Device == "" && ch.Addr == "":
					return fmt.Errorf("config: upper %q child declares neither device nor addr", c.Device)
				case ch.Device != "":
					if _, ok := devices[ch.Device]; !ok {
						return fmt.Errorf("config: upper %q references unknown sibling %q", c.Device, ch.Device)
					}
				}
			}
		}
		if c.Bands != nil {
			b := c.Bands
			if !(b.UncapThresholdFrac > 0 && b.UncapThresholdFrac < b.CapTargetFrac &&
				b.CapTargetFrac < b.CapThresholdFrac && b.CapThresholdFrac <= 1) {
				return fmt.Errorf("config: device %q has invalid bands", c.Device)
			}
		}
	}
	return nil
}

// Poll returns the controller's poll interval (zero when defaulted).
func (c Controller) Poll() time.Duration {
	return time.Duration(c.PollSeconds * float64(time.Second))
}
