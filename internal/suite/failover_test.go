package suite

import (
	"testing"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/rpc"
	"dynamo/internal/statestore"
)

// TestSuiteFailoverPromotesEveryController runs a primary suite of a leaf
// and its upper checkpointing into one shared store, with a backup
// assembly of the same suite standing by under one core.Failover. The
// primary's probed address goes dark while both of its controllers keep
// cycling (a zombie). On promotion each backup controller must adopt its
// own device's stream, resume that stream's cycle numbering with no gap
// or duplicate, and fence its zombie twin, whose next checkpoint write
// stops it.
func TestSuiteFailoverPromotesEveryController(t *testing.T) {
	w := newWorld(t)
	doc := func(name string) *config.Suite {
		var agents []config.AgentEntry
		for _, id := range []string{"srv0", "srv1", "srv2", "srv3", "srv4"} {
			agents = append(agents, config.AgentEntry{ID: id, Service: "web", Addr: "tcp/" + id})
		}
		// Five servers at ~295 W exceed the SB's 1.4 kW: the upper
		// contracts the leaf, which caps, so both journals carry an episode.
		return &config.Suite{Name: name, Controllers: []config.Controller{
			{Device: "rpp1", Level: "leaf", LimitWatts: 200000, Agents: agents},
			{Device: "sb1", Level: "upper", LimitWatts: 1400,
				Children: []config.ChildEntry{{Device: "rpp1", QuotaWatts: 1400}}},
		}}
	}
	for _, a := range doc("").Controllers[0].Agents {
		w.addAgent(a.ID, 0.8)
	}
	var alerts []core.Alert
	alert := func(a core.Alert) { alerts = append(alerts, a) }

	net := rpc.NewNetwork(w.loop, 0, 1)
	store := statestore.NewStore(w.loop, "shared", nil)
	primary, err := Build(w.loop, doc("primary"), w.dialer(), alert, nil, Options{Net: net, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// The backup routes its own upper-to-leaf traffic on a private network.
	backup, err := Build(w.loop, doc("backup"), w.dialer(), alert, nil, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	devices := []string{"rpp1", "sb1"}
	adopted := map[string][]core.DecisionRecord{}
	fo := core.NewFailover(w.loop, net, backup.Controllers(), core.FailoverConfig{
		PingInterval: 3 * time.Second, Store: store, Alerts: alert,
		OnPromoted: func() {
			for _, d := range devices {
				adopted[d] = backup.Controller(d).Journal().Records()
			}
		},
	})
	primary.StartAll()
	fo.Start()

	w.loop.RunUntil(60 * time.Second)
	if fo.Promoted() {
		t.Fatal("backup promoted while the primary was healthy")
	}
	// The probed address goes dark; both primary controllers keep running.
	net.Unregister(core.CtrlAddr("rpp1"))
	w.loop.RunUntil(90 * time.Second)
	if !fo.Promoted() {
		t.Fatal("backup suite not promoted")
	}
	w.loop.RunUntil(120 * time.Second)

	for _, d := range devices {
		zombie, ctrl := primary.Controller(d), backup.Controller(d)
		// Adopted its own stream: the adopted journal is a prefix of its
		// twin's, and the episode is in it.
		got, prim := adopted[d], zombie.Journal().Records()
		if len(got) == 0 || len(got) > len(prim) {
			t.Fatalf("%s adopted %d records; its primary journaled %d", d, len(got), len(prim))
		}
		sawCap := false
		for i, r := range got {
			if r != prim[i] {
				t.Fatalf("%s adopted record %d diverges:\n  primary %v\n  backup  %v", d, i, prim[i], r)
			}
			sawCap = sawCap || r.Action == core.ActionCap
		}
		if !sawCap {
			t.Errorf("%s: capping episode missing from the adopted journal", d)
		}
		// Resumed the numbering with no gap or duplicate.
		all := ctrl.Journal().Records()
		if !ctrl.Running() || len(all) <= len(got) {
			t.Fatalf("%s: promoted backup running=%v with %d records, %d adopted", d, ctrl.Running(), len(all), len(got))
		}
		for i := 1; i < len(all); i++ {
			if all[i].Cycle != all[i-1].Cycle+1 {
				t.Fatalf("%s journal has a gap or duplicate across failover: cycle %d follows %d",
					d, all[i].Cycle, all[i-1].Cycle)
			}
		}
		// Its zombie twin was fenced on its next checkpoint write.
		if zombie.Running() || !zombie.CheckpointWriter().Fenced() {
			t.Errorf("%s zombie primary running=%v fenced=%v; adoption must fence it",
				d, zombie.Running(), zombie.CheckpointWriter().Fenced())
		}
		var promo, fenced bool
		for _, a := range alerts {
			promo = promo || a.Controller == d && a.Kind == core.KindPromoted
			fenced = fenced || a.Controller == d && a.Kind == core.KindCheckpointFenced
		}
		if !promo || !fenced {
			t.Errorf("%s: promotion alert %v, fencing alert %v; want both", d, promo, fenced)
		}
	}
}
