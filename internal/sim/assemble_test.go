package sim

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/suite"
	"dynamo/internal/topology"
)

// smallSpec is one MSB over two SBs of two RPPs, two racks of five
// servers each: 4 leaves and 3 uppers.
func smallSpec() topology.Spec {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 2, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 5
	return spec
}

// TestCompileSuite round-trips the compiled controller tree through the
// daemons' JSON format and checks it against the topology it came from:
// one leaf per RPP over its servers (and, with cappable switches, its
// switches), one upper per SB and MSB naming its children in child order.
// The parsed document must then assemble.
func TestCompileSuite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     topology.Spec
		switches bool
	}{
		{"scaled default", topology.DefaultSpec().Scale(500), false},
		{"cappable switches", smallSpec(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.spec.MustBuild()
			compiled := CompileSuite(topo, core.BandConfig{}, tc.switches)
			raw, err := json.Marshal(compiled)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := config.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, compiled) {
				t.Fatal("the compiled suite does not survive a JSON round trip unchanged")
			}
			byDevice := map[string]config.Controller{}
			var order []topology.NodeID
			for _, c := range cfg.Controllers {
				byDevice[c.Device] = c
				order = append(order, topology.NodeID(c.Device))
			}
			var want []topology.NodeID
			for _, k := range []topology.Kind{topology.KindRPP, topology.KindSB, topology.KindMSB} {
				for _, n := range topo.OfKind(k) {
					want = append(want, n.ID)
				}
			}
			if len(order) != len(want) {
				t.Fatalf("%d controllers, want %d", len(order), len(want))
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("controller %d is %s, want %s (leaves, then SBs, then MSBs)", i, order[i], want[i])
				}
			}
			for _, rpp := range topo.OfKind(topology.KindRPP) {
				c := byDevice[string(rpp.ID)]
				servers, racks, tors := rpp.Servers(), 0, 0
				rpp.Walk(func(n *topology.Node) {
					switch n.Kind {
					case topology.KindRack:
						racks++
					case topology.KindSwitch:
						tors++
					}
				})
				wantAgents, wantNonServer := len(servers), 150*float64(racks)
				if tc.switches {
					wantAgents, wantNonServer = len(servers)+tors, 0
				}
				if c.Level != "leaf" || len(c.Agents) != wantAgents || c.NonServerWatts != wantNonServer {
					t.Fatalf("leaf %s: level %q, %d agents, %v non-server W; want leaf, %d, %v",
						rpp.ID, c.Level, len(c.Agents), c.NonServerWatts, wantAgents, wantNonServer)
				}
				if c.LimitWatts != float64(rpp.Rating) || c.QuotaWatts != float64(rpp.Quota) {
					t.Fatalf("leaf %s: limit/quota %v/%v, want %v/%v", rpp.ID, c.LimitWatts, c.QuotaWatts, rpp.Rating, rpp.Quota)
				}
				for i, srv := range servers {
					if a := c.Agents[i]; a.ID != string(srv.ID) || a.Addr != core.AgentAddr(string(srv.ID)) || a.Service != srv.Service {
						t.Fatalf("leaf %s agent %d = %+v, want server %s", rpp.ID, i, a, srv.ID)
					}
				}
				if tc.switches {
					if a := c.Agents[len(servers)]; a.Service != "network" {
						t.Fatalf("leaf %s: first agent after the servers is %+v, want a switch", rpp.ID, a)
					}
				}
			}
			for _, up := range [][2]topology.Kind{{topology.KindSB, topology.KindRPP}, {topology.KindMSB, topology.KindSB}} {
				for _, n := range topo.OfKind(up[0]) {
					c := byDevice[string(n.ID)]
					var kids []*topology.Node
					for _, ch := range n.Children {
						if ch.Kind == up[1] {
							kids = append(kids, ch)
						}
					}
					if c.Level != "upper" || len(c.Children) != len(kids) {
						t.Fatalf("upper %s: level %q, %d children, want upper, %d", n.ID, c.Level, len(c.Children), len(kids))
					}
					for i, ch := range kids {
						if got := c.Children[i]; got.Device != string(ch.ID) || got.QuotaWatts != float64(ch.Quota) {
							t.Fatalf("upper %s child %d = %+v, want %s", n.ID, i, got, ch.ID)
						}
					}
				}
			}

			loop := simclock.NewSimLoop()
			net := rpc.NewNetwork(loop, 0, 0)
			asm, err := suite.Build(loop, cfg, func(addr string) (rpc.Client, error) { return net.Dial(addr), nil }, nil, nil,
				suite.Options{Net: net})
			if err != nil {
				t.Fatal(err)
			}
			if asm.NumControllers() != len(want) {
				t.Fatalf("assembled %d controllers, want %d", asm.NumControllers(), len(want))
			}
		})
	}
}

// TestCompiledSuiteShape: a simulation assembles one controller per
// protected device from its compiled configuration.
func TestCompiledSuiteShape(t *testing.T) {
	s, err := New(Config{Spec: smallSpec(), Seed: 1, EnableDynamo: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Hierarchy
	if got := len(h.Leaves); got != 4 { // one per RPP
		t.Errorf("leaves = %d, want 4", got)
	}
	if got := len(h.Uppers); got != 3 { // 2 SBs + 1 MSB
		t.Errorf("uppers = %d, want 3", got)
	}
	if h.NumControllers() != 7 {
		t.Errorf("controllers = %d", h.NumControllers())
	}
	if h.Leaf(s.Topo.OfKind(topology.KindRPP)[0].ID) == nil {
		t.Error("missing leaf for first RPP")
	}
	if h.Upper(s.Topo.OfKind(topology.KindMSB)[0].ID) == nil {
		t.Error("missing upper for MSB")
	}
}

// TestHierarchyRunsAndAggregates: the compiled tree aggregates the fleet's
// true draw (switches included) at the MSB, and StopAll stops it.
func TestHierarchyRunsAndAggregates(t *testing.T) {
	s, err := New(Config{Spec: smallSpec(), Seed: 1, EnableDynamo: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)

	var truth power.Watts
	for _, sv := range s.Servers {
		truth += sv.Power()
	}
	msb := s.Hierarchy.Upper(s.Topo.OfKind(topology.KindMSB)[0].ID)
	agg, valid := msb.LastAggregate()
	if !valid {
		t.Fatal("MSB aggregation invalid")
	}
	// Aggregate includes switch draw (8 racks × 150 W = 1.2 kW).
	lo := float64(truth) * 0.95
	hi := (float64(truth) + 8*150) * 1.05
	if float64(agg) < lo || float64(agg) > hi {
		t.Errorf("MSB agg %v, truth %v (+switches)", agg, truth)
	}
	s.Hierarchy.StopAll()
	cycles := msb.Cycles()
	s.Run(30 * time.Second)
	if msb.Cycles() != cycles {
		t.Error("controllers kept polling after StopAll")
	}
}
