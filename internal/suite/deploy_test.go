package suite

import (
	"fmt"
	"net"
	"testing"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
)

// inprocTransport serves and dials on an in-process network: a
// deployment in virtual time.
func inprocTransport(net *rpc.Network) Transport {
	return Transport{
		Dial: func(addr string) (rpc.Client, error) { return net.Dial(addr), nil },
		Serve: func(addr string, h rpc.Handler) (string, func(), error) {
			net.Register(addr, h)
			return addr, func() { net.Unregister(addr) }, nil
		},
	}
}

// leafSuite is a one-leaf suite over agents, exposed at listen when set.
func leafSuite(name, listen string, limit, poll float64, agents []config.AgentEntry) *config.Suite {
	return &config.Suite{Name: name, Controllers: []config.Controller{{
		Device: "rpp1", Level: "leaf", LimitWatts: limit, PollSeconds: poll,
		Agents: agents, Listen: listen,
	}}}
}

// TestDeployedBackupKeepsLeasedCaps runs a failover pair as dynamo-suited
// deploys it, with its defaults, in virtual time: four leased agents over
// the leaf's limit, the primary shipping its store to the backup's, and
// the backup probing the primary's listener. The primary goes down 0.1 s
// before a pull, so detection takes most of a lease TTL after its last
// renewal: a backup whose first pull came one poll after promotion would
// find every lease expired and the caps lapsed. No lease may expire, and
// the backup must hold the primary's caps.
func TestDeployedBackupKeepsLeasedCaps(t *testing.T) {
	w := newWorld(t)
	var agents []config.AgentEntry
	expiries := 0
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("srv%d", i)
		w.addAgent(id, 0.8).EnableLease(w.loop, 0, func(string, power.Watts) { expiries++ })
		agents = append(agents, config.AgentEntry{ID: id, Service: "web", Addr: "tcp/" + id})
	}
	// Four servers at ~295 W are over the leaf's 1.1 kW.
	tr := inprocTransport(w.ext)

	pd := DefaultDaemon()
	pd.StorePeers = []string{"store/backup"}
	primary, err := Deploy(w.loop, leafSuite("primary", "ctrl/primary", 1100, 0, agents), pd, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd := DefaultDaemon()
	bd.StoreListen, bd.Primary = "store/backup", "ctrl/primary"
	backup, err := Deploy(w.loop, leafSuite("backup", "", 1100, 0, agents), bd, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The primary pulls every poll from its start at 0, the poll its
	// journal shows; it goes down 0.1 s before its first pull after 36 s.
	w.loop.RunUntil(36 * time.Second)
	recs := primary.Leaf("rpp1").Journal().Records()
	poll := recs[len(recs)-1].Time - recs[len(recs)-2].Time
	w.loop.RunUntil((w.loop.Now()/poll+1)*poll - 100*time.Millisecond)
	capped := primary.Leaf("rpp1").CappedCount()
	if capped == 0 {
		t.Fatal("the primary holds no caps: no episode to fail over in")
	}
	primary.Stop()
	w.loop.RunUntil(80 * time.Second)
	if !backup.Failover.Promoted() {
		t.Fatal("backup not promoted")
	}
	if expiries != 0 {
		t.Fatalf("%d cap leases expired across the failover", expiries)
	}
	if got := backup.Leaf("rpp1").CappedCount(); got != capped {
		t.Fatalf("the backup holds %d caps, the primary held %d", got, capped)
	}
}

// tcpWorld is a deployment's surroundings on the wall clock: agents
// served over loopback TCP on one loop.
type tcpWorld struct {
	loop   *simclock.WallLoop
	tr     Transport
	agents []config.AgentEntry
}

func newTCPWorld(t *testing.T, n int) *tcpWorld {
	t.Helper()
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	loop := simclock.NewWallLoop()
	t.Cleanup(loop.Close)
	w := &tcpWorld{loop: loop, tr: TCPTransport(loop, nil)}
	for i := 0; i < n; i++ {
		h := newHost(fmt.Sprintf("tsrv%d", i), 0.8)
		tick := simclock.NewTicker(loop, 100*time.Millisecond, func() { h.srv.Tick(loop.Now()) })
		loop.Post(tick.Start)
		addr, stop, err := w.tr.Serve("127.0.0.1:0", h.handler())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		w.agents = append(w.agents, config.AgentEntry{ID: h.id, Service: "web", Addr: addr})
	}
	return w
}

// waitFor polls cond on the loop until it holds or d has passed.
func (w *tcpWorld) waitFor(d time.Duration, cond func() bool) bool {
	for end := time.Now().Add(d); ; time.Sleep(50 * time.Millisecond) {
		var ok bool
		w.loop.Call(func() { ok = cond() })
		if ok || time.Now().After(end) {
			return ok
		}
	}
}

// freeAddr reserves a loopback port and returns its address, free again.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestDeployReshipsToRestartedPeerStore closes a peer store's listener
// and serves it again at the same address: the primary's shipper must
// reach it again within a few store intervals.
func TestDeployReshipsToRestartedPeerStore(t *testing.T) {
	w := newTCPWorld(t, 2)
	peer := statestore.NewStore(w.loop, "peer", nil)
	addr, unserve, err := w.tr.Serve("127.0.0.1:0", peer.Handler())
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultDaemon()
	d.StorePeers = []string{addr}
	dep, err := Deploy(w.loop, leafSuite("primary", "", 100000, 0.3, w.agents), d, w.tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	var shipped uint64
	if !w.waitFor(5*d.StoreInterval, func() bool { shipped = peer.NextSeq("rpp1"); return shipped > 1 }) {
		t.Fatal("no entry reached the peer store")
	}

	unserve()
	time.Sleep(2 * d.StoreInterval) // shipping fails while the peer is down
	if _, unserve, err = w.tr.Serve(addr, peer.Handler()); err != nil {
		t.Fatal(err)
	}
	defer unserve()
	w.loop.Call(func() { shipped = peer.NextSeq("rpp1") })
	if !w.waitFor(4*d.StoreInterval, func() bool { return peer.NextSeq("rpp1") > shipped }) {
		t.Fatal("the restarted peer store received no entry")
	}
}

// TestDeployRestartedPrimaryKeepsBackupStandingBy restarts a primary
// deployment at the same control address well within three probes: the
// backup must not promote. Once the primary stays down, it must.
func TestDeployRestartedPrimaryKeepsBackupStandingBy(t *testing.T) {
	w := newTCPWorld(t, 2)
	ctrl := freeAddr(t)
	primaryCfg := leafSuite("primary", ctrl, 100000, 0.3, w.agents)
	primary, err := Deploy(w.loop, primaryCfg, DefaultDaemon(), w.tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd := DefaultDaemon()
	bd.Primary = ctrl
	backup, err := Deploy(w.loop, leafSuite("backup", "", 100000, 0.3, w.agents), bd, w.tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Stop()
	promoted := func() bool { return backup.Failover.Promoted() }

	time.Sleep(time.Second)
	primary.Stop()
	if primary, err = Deploy(w.loop, primaryCfg, DefaultDaemon(), w.tr, nil, nil); err != nil {
		t.Fatal(err)
	}
	if w.waitFor(3*time.Second, promoted) {
		t.Fatal("the backup promoted over a primary that restarted at once")
	}
	primary.Stop()
	if !w.waitFor(3*time.Second, promoted) {
		t.Fatal("the backup did not promote once the primary stayed down")
	}
}
