package topology

import (
	"fmt"

	"dynamo/internal/power"
)

// ServiceShare describes what fraction of servers run a given service, and
// on which hardware generation (see internal/server for generations).
type ServiceShare struct {
	Service    string
	Generation string
	// Weight is a relative share; shares are normalized over the spec.
	Weight float64
}

// Spec describes an OCP-style data center to build (paper Fig 2 defaults).
// The zero value is not useful; start from DefaultSpec.
type Spec struct {
	Name string

	// Fan-out per level.
	MSBs           int
	SBsPerMSB      int
	RPPsPerSB      int
	RacksPerRPP    int
	ServersPerRack int

	// Ratings; zero means the OCP default for the class.
	MSBRating  power.Watts
	SBRating   power.Watts
	RPPRating  power.Watts
	RackRating power.Watts

	// QuotaFraction sets each device's power quota as a fraction of its
	// parent's rating divided by sibling count. 1.0 means quotas exactly
	// partition the parent rating; the paper's example (two 150 kW quotas
	// under a 300 kW parent) corresponds to 1.0.
	QuotaFraction float64

	// Services is the service mix; servers are assigned round-robin in
	// proportion to weights, rack by rack (real clusters are homogeneous
	// per row, so assignment happens per rack, not per server).
	Services []ServiceShare

	// SwitchPerRack adds a top-of-rack switch node to each rack when true.
	SwitchPerRack bool
}

// DefaultSpec returns a small (one MSB) data center with the paper's OCP
// ratings and the six characterized services. Scale up via the fields or
// the Scale helper.
func DefaultSpec() Spec {
	return Spec{
		Name:           "dc1",
		MSBs:           1,
		SBsPerMSB:      2,
		RPPsPerSB:      4,
		RacksPerRPP:    4,
		ServersPerRack: 30,
		QuotaFraction:  1.0,
		SwitchPerRack:  true,
		Services: []ServiceShare{
			{Service: "web", Generation: "haswell2015", Weight: 35},
			{Service: "cache", Generation: "haswell2015", Weight: 15},
			{Service: "hadoop", Generation: "haswell2015", Weight: 20},
			{Service: "database", Generation: "haswell2015", Weight: 10},
			{Service: "newsfeed", Generation: "haswell2015", Weight: 10},
			{Service: "f4storage", Generation: "westmere2011", Weight: 10},
		},
	}
}

// FullSpec returns the full 30 MW Facebook data center of the paper: four
// suites worth of MSBs (12 × 2.5 MW ≈ 30 MW utility feed), four SBs each,
// with OCP fan-out below: 12 × 4 × 8 × 18 × 30 = 207,360 servers; build
// time is proportional to node count.
func FullSpec() Spec {
	s := DefaultSpec()
	s.MSBs = 12
	s.SBsPerMSB = 4
	s.RPPsPerSB = 8
	// An RPP feeds a full row: 18 racks × 12.6 kW = 226.8 kW drawn at peak
	// against a 190 kW rating, so the RPP level is oversubscribed too
	// (rack power itself is over-provisioned; paper §IV footnote 2).
	s.RacksPerRPP = 18
	s.ServersPerRack = 30
	return s
}

// Scale adjusts the per-level fan-out to reach approximately n servers,
// keeping proportions. It never goes below one unit per level.
func (s Spec) Scale(nServers int) Spec {
	cur := s.MSBs * s.SBsPerMSB * s.RPPsPerSB * s.RacksPerRPP * s.ServersPerRack
	if cur <= 0 || nServers <= 0 {
		return s
	}
	for cur > nServers {
		switch {
		case s.MSBs > 1:
			s.MSBs--
		case s.SBsPerMSB > 1:
			s.SBsPerMSB--
		case s.RPPsPerSB > 1:
			s.RPPsPerSB--
		case s.RacksPerRPP > 1:
			s.RacksPerRPP--
		case s.ServersPerRack > 1:
			s.ServersPerRack--
		default:
			return s
		}
		cur = s.MSBs * s.SBsPerMSB * s.RPPsPerSB * s.RacksPerRPP * s.ServersPerRack
	}
	for cur < nServers {
		switch {
		case s.ServersPerRack < 42:
			s.ServersPerRack++
		case s.RacksPerRPP < 18:
			s.RacksPerRPP++
		case s.RPPsPerSB < 8:
			s.RPPsPerSB++
		case s.SBsPerMSB < 4:
			s.SBsPerMSB++
		default:
			s.MSBs++
		}
		cur = s.MSBs * s.SBsPerMSB * s.RPPsPerSB * s.RacksPerRPP * s.ServersPerRack
	}
	return s
}

// NumServers returns the server count the spec will produce.
func (s Spec) NumServers() int {
	return s.MSBs * s.SBsPerMSB * s.RPPsPerSB * s.RacksPerRPP * s.ServersPerRack
}

func (s Spec) rating(k Kind) power.Watts {
	var override power.Watts
	switch k {
	case KindMSB:
		override = s.MSBRating
	case KindSB:
		override = s.SBRating
	case KindRPP:
		override = s.RPPRating
	case KindRack:
		override = s.RackRating
	}
	if override > 0 {
		return override
	}
	class, _ := k.DeviceClass()
	return class.DefaultRating()
}

// Build constructs and indexes the topology.
func (s Spec) Build() (*Topology, error) {
	if s.MSBs <= 0 || s.SBsPerMSB <= 0 || s.RPPsPerSB <= 0 || s.RacksPerRPP <= 0 || s.ServersPerRack <= 0 {
		return nil, fmt.Errorf("topology: spec fan-out must be positive: %+v", s)
	}
	if len(s.Services) == 0 {
		return nil, fmt.Errorf("topology: spec has no services")
	}
	qf := s.QuotaFraction
	if qf <= 0 {
		qf = 1.0
	}

	var totalWeight float64
	for _, sv := range s.Services {
		if sv.Weight < 0 {
			return nil, fmt.Errorf("topology: negative weight for service %q", sv.Service)
		}
		totalWeight += sv.Weight
	}
	if totalWeight == 0 {
		return nil, fmt.Errorf("topology: service weights sum to zero")
	}

	root := &Node{
		ID:     NodeID(s.Name),
		Kind:   KindDatacenter,
		Rating: power.Watts(float64(s.rating(KindMSB)) * float64(s.MSBs)),
	}

	// Rack-granular service assignment: emit racks of each service in
	// proportion to weights using a largest-remainder style accumulator.
	totalRacks := s.MSBs * s.SBsPerMSB * s.RPPsPerSB * s.RacksPerRPP
	rackService := make([]ServiceShare, 0, totalRacks)
	acc := make([]float64, len(s.Services))
	for len(rackService) < totalRacks {
		best, bestVal := 0, -1.0
		for i, sv := range s.Services {
			acc[i] += sv.Weight / totalWeight
			if acc[i] > bestVal {
				best, bestVal = i, acc[i]
			}
		}
		acc[best] -= 1.0
		rackService = append(rackService, s.Services[best])
	}

	serverSeq := 0
	rackIdx := 0
	for m := 0; m < s.MSBs; m++ {
		msb := &Node{
			ID:     NodeID(fmt.Sprintf("%s/msb%d", s.Name, m+1)),
			Kind:   KindMSB,
			Rating: s.rating(KindMSB),
			Quota:  power.Watts(float64(root.Rating) * qf / float64(s.MSBs)),
			Parent: root,
		}
		root.Children = append(root.Children, msb)
		for b := 0; b < s.SBsPerMSB; b++ {
			sb := &Node{
				ID:     NodeID(fmt.Sprintf("%s/sb%d", msb.ID, b+1)),
				Kind:   KindSB,
				Rating: s.rating(KindSB),
				Quota:  power.Watts(float64(msb.Rating) * qf / float64(s.SBsPerMSB)),
				Parent: msb,
			}
			msb.Children = append(msb.Children, sb)
			for r := 0; r < s.RPPsPerSB; r++ {
				rpp := &Node{
					ID:     NodeID(fmt.Sprintf("%s/rpp%d", sb.ID, r+1)),
					Kind:   KindRPP,
					Rating: s.rating(KindRPP),
					Quota:  power.Watts(float64(sb.Rating) * qf / float64(s.RPPsPerSB)),
					Parent: sb,
				}
				sb.Children = append(sb.Children, rpp)
				for k := 0; k < s.RacksPerRPP; k++ {
					svc := rackService[rackIdx]
					rackIdx++
					rack := &Node{
						ID:     NodeID(fmt.Sprintf("%s/rack%02d", rpp.ID, k+1)),
						Kind:   KindRack,
						Rating: s.rating(KindRack),
						Quota:  power.Watts(float64(rpp.Rating) * qf / float64(s.RacksPerRPP)),
						Parent: rpp,
					}
					rpp.Children = append(rpp.Children, rack)
					for v := 0; v < s.ServersPerRack; v++ {
						serverSeq++
						srv := &Node{
							ID:         NodeID(fmt.Sprintf("%s/srv%05d", rack.ID, serverSeq)),
							Kind:       KindServer,
							Parent:     rack,
							Service:    svc.Service,
							Generation: svc.Generation,
						}
						rack.Children = append(rack.Children, srv)
					}
					if s.SwitchPerRack {
						sw := &Node{
							ID:     NodeID(fmt.Sprintf("%s/tor", rack.ID)),
							Kind:   KindSwitch,
							Parent: rack,
						}
						rack.Children = append(rack.Children, sw)
					}
				}
			}
		}
	}
	return New(root)
}

// MustBuild is Build that panics on error; for tests and examples.
func (s Spec) MustBuild() *Topology {
	t, err := s.Build()
	if err != nil {
		panic(err)
	}
	return t
}
