package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/noise"
	"dynamo/internal/platform"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// echo is a trivial message for round-trips.
type echo struct{ N uint64 }

func (m *echo) MarshalWire(e *wire.Encoder)         { e.Uvarint(m.N) }
func (m *echo) UnmarshalWire(d *wire.Decoder) error { m.N = d.Uvarint(); return d.Err() }

// harness wires a sim loop, an in-proc network with one echo endpoint,
// and an injector-wrapped client to it.
type harness struct {
	loop   *simclock.SimLoop
	net    *rpc.Network
	inj    *Injector
	client rpc.Client
	served int
}

func newHarness(t *testing.T, seed int64, rules ...Rule) *harness {
	t.Helper()
	h := &harness{loop: simclock.NewSimLoop()}
	h.net = rpc.NewNetwork(h.loop, time.Millisecond, 7)
	h.net.Register("agent/a1", func(method string, body []byte) (wire.Message, error) {
		h.served++
		var m echo
		if err := wire.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		return &m, nil
	})
	h.inj = New(h.loop, seed, nil)
	h.inj.Add(rules...)
	h.client = h.inj.WrapClient("agent/a1", h.net.Dial("agent/a1"))
	return h
}

// call issues one call, steps the loop just until it completes, and
// returns how long the call took in virtual time.
func (h *harness) call(t *testing.T, timeout time.Duration) (time.Duration, error) {
	t.Helper()
	start := h.loop.Now()
	var (
		got    bool
		doneAt time.Duration
		cerr   error
	)
	h.loop.Post(func() {
		h.client.Call("Echo", &echo{N: 1}, timeout, func(resp []byte, err error) {
			got, doneAt, cerr = true, h.loop.Now(), err
		})
	})
	for i := 0; i < 1_000_000 && !got; i++ {
		if !h.loop.Step() {
			break
		}
	}
	if !got {
		t.Fatalf("call never completed")
	}
	return doneAt - start, cerr
}

func TestNoRulesPassThrough(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.call(t, time.Second); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	d, dl, du := h.inj.Counts()
	if d+dl+du != 0 {
		t.Fatalf("injected faults with no rules: %d %d %d", d, dl, du)
	}
}

func TestDropAllTimesOut(t *testing.T) {
	h := newHarness(t, 1, Rule{Peer: "agent/*", DropP: 1})
	elapsed, err := h.call(t, 500*time.Millisecond)
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed != 500*time.Millisecond {
		t.Fatalf("timeout elapsed at %v, want 500ms", elapsed)
	}
	if h.served != 0 {
		t.Fatalf("dropped request reached the server")
	}
	// Without a deadline the drop surfaces immediately as unreachable.
	if _, err := h.call(t, 0); !errors.Is(err, rpc.ErrUnreachable) {
		t.Fatalf("want ErrUnreachable for deadline-less drop, got %v", err)
	}
}

// TestCrashVersusPartition pins the two ways a peer goes away. A crashed
// process has no endpoint: the call is refused at the delivery event, one
// network latency in, however long its deadline. A partition is a rule: the
// request vanishes and the caller waits out exactly its deadline. Heal
// closes the rule at the current instant, so the very next call is served,
// and it closes nothing else.
func TestCrashVersusPartition(t *testing.T) {
	h := newHarness(t, 1)
	h.net.Unregister("agent/a1")
	if elapsed, err := h.call(t, 500*time.Millisecond); !errors.Is(err, rpc.ErrUnreachable) || elapsed != time.Millisecond {
		t.Fatalf("crashed peer: got (%v, %v), want ErrUnreachable at the 1ms delivery", elapsed, err)
	}

	h = newHarness(t, 1)
	h.loop.RunUntil(3 * time.Second)
	h.inj.Add(
		Partition("agent/a1", h.loop.Now(), 0),
		Partition("agent/*", 0, 0),
		Rule{Peer: "agent/a1", From: time.Hour, Until: 2 * time.Hour, DropP: 1},
	)
	if elapsed, err := h.call(t, 500*time.Millisecond); !errors.Is(err, rpc.ErrTimeout) || elapsed != 500*time.Millisecond {
		t.Fatalf("partitioned peer: got (%v, %v), want ErrTimeout at the 500ms deadline", elapsed, err)
	}
	h.inj.Heal("agent/a1")
	if _, err := h.call(t, 500*time.Millisecond); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("Heal(agent/a1) also closed the agent/* rule: %v", err)
	}
	h.inj.Heal("agent/*")
	if _, err := h.call(t, 500*time.Millisecond); err != nil || h.served != 1 {
		t.Fatalf("first call after Heal: err %v, served %d; want it served", err, h.served)
	}
	h.loop.RunUntil(time.Hour + time.Minute)
	if _, err := h.call(t, 500*time.Millisecond); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("Heal closed a rule with a scripted window: %v", err)
	}

	// At time zero too, where Until = now would read as "forever".
	h = newHarness(t, 1, Partition("agent/a1", 0, 0))
	h.inj.Heal("agent/a1")
	if _, err := h.call(t, 500*time.Millisecond); err != nil {
		t.Fatalf("rule healed at time zero still drops: %v", err)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	h := newHarness(t, 1, Rule{Delay: 100 * time.Millisecond})
	base := newHarness(t, 1)
	want, err := base.call(t, time.Second)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	elapsed, err := h.call(t, time.Second)
	if err != nil {
		t.Fatalf("delayed call failed: %v", err)
	}
	if elapsed != want+100*time.Millisecond {
		t.Fatalf("delayed call took %v, want %v", elapsed, want+100*time.Millisecond)
	}
	// A delay at or past the deadline is a timeout at exactly the deadline.
	h2 := newHarness(t, 1, Rule{Delay: 2 * time.Second})
	elapsed, err = h2.call(t, time.Second)
	if !errors.Is(err, rpc.ErrTimeout) || elapsed != time.Second {
		t.Fatalf("over-deadline delay: got (%v, %v), want (1s, ErrTimeout)", elapsed, err)
	}
}

func TestDuplicateDeliversOnce(t *testing.T) {
	h := newHarness(t, 1, Rule{DupP: 1})
	if _, err := h.call(t, time.Second); err != nil {
		t.Fatalf("dup call failed: %v", err)
	}
	if h.served != 2 {
		t.Fatalf("server saw %d requests, want 2", h.served)
	}
}

func TestWindowGatesRules(t *testing.T) {
	h := newHarness(t, 1, Rule{From: 10 * time.Second, Until: 20 * time.Second, DropP: 1})
	if _, err := h.call(t, time.Second); err != nil {
		t.Fatalf("rule active before window: %v", err)
	}
	h.loop.RunUntil(15 * time.Second)
	if _, err := h.call(t, time.Second); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("rule inactive inside window: %v", err)
	}
	h.loop.RunUntil(25 * time.Second)
	if _, err := h.call(t, time.Second); err != nil {
		t.Fatalf("rule active after window: %v", err)
	}
}

func TestMethodGlob(t *testing.T) {
	h := newHarness(t, 1, Rule{Method: "Other.Method", DropP: 1})
	if _, err := h.call(t, time.Second); err != nil {
		t.Fatalf("rule for another method dropped this call: %v", err)
	}
	h2 := newHarness(t, 1, Rule{Method: "Ech*", DropP: 1})
	if _, err := h2.call(t, time.Second); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("prefix method glob did not match: %v", err)
	}
}

// TestDeterministicDraws verifies same seed + schedule ⇒ identical
// outcome sequence, and that a different seed diverges.
func TestDeterministicDraws(t *testing.T) {
	run := func(seed int64) []bool {
		h := newHarness(t, seed, Rule{DropP: 0.5})
		var outs []bool
		for i := 0; i < 64; i++ {
			_, err := h.call(t, 100*time.Millisecond)
			outs = append(outs, err == nil)
		}
		return outs
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical 64-call outcome sequence")
	}
	drops := 0
	for _, ok := range a {
		if !ok {
			drops++
		}
	}
	if drops < 16 || drops > 48 {
		t.Fatalf("p=0.5 drop rate wildly off: %d/64 dropped", drops)
	}
}

func TestWrapHandlerDupAndDrop(t *testing.T) {
	loop := simclock.NewSimLoop()
	inj := New(loop, 9, nil)
	inj.Add(Rule{Method: "Dup", DupP: 1}, Rule{Method: "Drop", DropP: 1})
	served := 0
	h := inj.WrapHandler("agent/a1", func(method string, body []byte) (wire.Message, error) {
		served++
		return &echo{N: 1}, nil
	})
	if _, err := h("Dup", nil); err != nil {
		t.Fatalf("dup handler call failed: %v", err)
	}
	if served != 2 {
		t.Fatalf("duplicated handler ran %d times, want 2", served)
	}
	if _, err := h("Drop", nil); err == nil {
		t.Fatalf("dropped handler call succeeded")
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := Parse(`
# comment
partition agent/srv2* 2m..5m
drop  ctrl/* Ctrl.ReadPower 1m.. p=0.25
delay agent/* * .. d=30ms j=20ms
dup   * * ..10s p=0.1
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(rules))
	}
	p := rules[0]
	if p.Peer != "agent/srv2*" || p.DropP != 1 || p.From != 2*time.Minute || p.Until != 5*time.Minute {
		t.Fatalf("partition rule wrong: %+v", p)
	}
	if rules[1].DropP != 0.25 || rules[1].From != time.Minute || rules[1].Until != 0 {
		t.Fatalf("drop rule wrong: %+v", rules[1])
	}
	if rules[2].Delay != 30*time.Millisecond || rules[2].DelayJitter != 20*time.Millisecond {
		t.Fatalf("delay rule wrong: %+v", rules[2])
	}
	if rules[3].DupP != 0.1 || rules[3].Until != 10*time.Second {
		t.Fatalf("dup rule wrong: %+v", rules[3])
	}
	for _, bad := range []string{
		"drop agent/*",         // missing fields
		"warp a b .. p=1",      // unknown kind
		"drop a b .. p=1.5",    // probability out of range
		"delay a b .. p=0.5",   // wrong parameter for kind
		"drop a b 2m-5m p=1",   // bad window separator
		"partition a b 2m..5m", // too many fields
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// keyedIndex hands out call indices the way the injector did when they
// lived in a map keyed by peer+"\x00"+method and every call built that
// key. The draw itself is the production one; what the reference pins is
// which index each call is given.
type keyedIndex map[string]uint64

func (k keyedIndex) verdict(in *Injector, peer, method string) verdict {
	key := peer + "\x00" + method
	n := k[key]
	k[key] = n + 1
	if len(in.rules) == 0 {
		return verdict{}
	}
	return in.draw(peer, method, n, methodPrefix(in.peerHash(peer), method))
}

// TestCallIndexMatchesKeyedMap: calls made while the schedule is empty
// still advance the shared per-(peer, method) index, so a rule added
// mid-run draws exactly what it drew when every call looked the index up
// by key — also when two wrappers (and a wrapped handler) share a peer,
// and for methods past the four a peer's index holds inline.
func TestCallIndexMatchesKeyedMap(t *testing.T) {
	loop := simclock.NewSimLoop()
	in := New(loop, 42, nil)
	ref := keyedIndex{}
	a1 := in.WrapClient("agent/a1", nil).(*faultClient).idx
	wrappers := []*peerIndex{
		a1,
		in.WrapClient("agent/a1", nil).(*faultClient).idx, // second wrapper, same peer
		in.WrapClient("agent/a2", nil).(*faultClient).idx,
		in.index("agent/a1"), // what WrapHandler holds
	}
	if wrappers[1] != a1 || wrappers[3] != a1 {
		t.Fatal("wrappers of one peer hold different call indices")
	}
	if a1.methods == nil || &a1.methods[:1][0] != &a1.inline[0] {
		t.Fatal("a fresh index does not count into its inline slots")
	}
	methods := []string{agent.MethodReadPower, agent.MethodSetCap, agent.MethodRenewLease}
	rng := rand.New(rand.NewSource(3))
	drive := func(n int) (drops int) {
		for i := 0; i < n; i++ {
			w, m := wrappers[rng.Intn(len(wrappers))], methods[rng.Intn(len(methods))]
			got, want := in.verdict(w, m), ref.verdict(in, w.peer, m)
			if got != want {
				t.Fatalf("call %d to %s %s: verdict %+v, keyed-map reference %+v", i, w.peer, m, got, want)
			}
			if got.drop {
				drops++
			}
			loop.RunFor(time.Millisecond)
		}
		return drops
	}
	if drops := drive(500); drops != 0 {
		t.Fatalf("%d drops with no rules", drops)
	}
	// Two more methods: a1 fills its four inline slots and spills.
	methods = append(methods, agent.MethodClearCap, "Probe.Fifth", "Probe.Sixth")
	if drops := drive(500); drops != 0 {
		t.Fatalf("%d drops with no rules", drops)
	}
	if len(a1.methods) != 6 || &a1.methods[0] == &a1.inline[0] {
		t.Fatalf("agent/a1 counts %d methods, inline=%v; want 6, spilled", len(a1.methods), &a1.methods[0] == &a1.inline[0])
	}
	in.Add(Rule{Peer: "agent/*", Method: agent.MethodReadPower, DropP: 0.5},
		Rule{Peer: "agent/a1", DelayJitter: 5 * time.Millisecond, DupP: 0.1},
		Rule{Peer: "agent/a2", Method: "Probe.*", DropP: 0.3})
	if drops := drive(3000); drops < 200 {
		t.Fatalf("only %d of ~500 ReadPower calls dropped under a 50%% rule", drops)
	}
}

// TestRulesFromAnotherGoroutine: Add and Counts may be called off the
// loop while the loop calls through wrapped clients, whose zero-rule path
// takes no lock. Run under -race. (Heal reads the loop's clock, which a
// SimLoop keeps for its own goroutine.)
func TestRulesFromAnotherGoroutine(t *testing.T) {
	h := newHarness(t, 9)
	var progress atomic.Int64 // calls completed; rules arrive in the second half
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		added := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if added < 10 && progress.Load() >= 1000+int64(100*added) {
				h.inj.Add(Rule{Peer: "agent/a1", Method: "Echo", DropP: 0.01})
				added++
			}
			h.inj.Counts()
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := h.call(t, 5*time.Millisecond); err != nil && !errors.Is(err, rpc.ErrTimeout) {
			t.Errorf("call %d: %v", i, err)
		}
		progress.Store(int64(i + 1))
	}
	close(stop)
	<-finished
	if dropped, _, _ := h.inj.Counts(); int(dropped)+h.served != 2000 {
		t.Fatalf("%d dropped + %d served, want 2000 calls", dropped, h.served)
	}
}

// TestZeroRulePullAllocs: a steady-state ReadPower round trip over the
// in-proc transport, through a fault wrapper with no rules, allocates
// nothing: the agent reuses its reply, the transport its call record, and
// this caller its completion (as a controller does). Nor does the first
// call of each of the agent's four methods through a fresh wrapper: its
// peer's call index was made at wrap time.
func TestZeroRulePullAllocs(t *testing.T) {
	loop := simclock.NewSimLoop()
	net := rpc.NewNetwork(loop, 2*time.Millisecond, 7)
	host := server.New(server.Config{
		ID: "s1", Service: "web", Model: server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return 0.7 }),
	})
	host.Tick(0)
	ag := agent.New("s1", "web", "haswell2015", platform.NewMSR(host, platform.Options{Seed: 1}))
	net.Register("agent/s1", ag.Handler())
	inj := New(loop, 1, nil)
	client := inj.WrapClient("agent/s1", net.Dial("agent/s1"))
	var decoder wire.Decoder
	var reading agent.ReadPowerResponse
	ok := 0
	done := func(resp []byte, err error) {
		decoder.Reset(resp)
		if err == nil && reading.UnmarshalWire(&decoder) == nil && reading.TotalWatts > 0 {
			ok++
		}
	}
	pull := func() {
		client.Call(agent.MethodReadPower, rpc.Empty, time.Second, done)
		loop.RunFor(10 * time.Millisecond)
	}
	pull() // warm-up: the call record, its buffers, the decoded strings
	n := testing.AllocsPerRun(200, pull)
	if n != 0 {
		t.Errorf("zero-rule in-proc ReadPower allocates %v per round trip, want 0", n)
	}
	if ok != 202 {
		t.Fatalf("%d of 202 pulls returned a reading", ok)
	}

	// Fresh wrappers, each the first of its peer, made up front (set-up);
	// every run calls all four methods through the next one.
	const runs = 50
	fresh := make([]rpc.Client, runs+1)
	for i := range fresh {
		fresh[i] = inj.WrapClient(fmt.Sprintf("agent/fresh%d", i), net.Dial("agent/s1"))
	}
	setCap, renew := &agent.SetCapRequest{LimitWatts: 150}, &agent.ReadPowerRequest{LeaseNanos: 1}
	errs := 0
	ack := func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	}
	next := 0
	first := func() {
		c := fresh[next]
		next++
		c.Call(agent.MethodReadPower, rpc.Empty, time.Second, ack)
		c.Call(agent.MethodSetCap, setCap, time.Second, ack)
		c.Call(agent.MethodRenewLease, renew, time.Second, ack)
		c.Call(agent.MethodClearCap, rpc.Empty, time.Second, ack)
		loop.RunFor(10 * time.Millisecond)
	}
	if n := testing.AllocsPerRun(runs, first); n != 0 {
		t.Errorf("the first call of each agent method through a fresh wrapper allocates %v, want 0", n)
	}
	if errs != 0 || next != runs+1 {
		t.Fatalf("%d of %d first calls failed", errs, 4*next)
	}
}

// unitOracle is how a draw was computed when every rule of every call
// hashed the peer and method strings.
func unitOracle(seed int64, peer, method string, n, salt uint64) float64 {
	h := noise.Mix64(uint64(seed) ^ noise.FNV64a(peer))
	h = noise.Mix64(h ^ noise.FNV64a(method))
	h = noise.Mix64(h ^ n)
	h = noise.Mix64(h ^ salt)
	return float64(h>>11) / float64(1<<53)
}

// TestPrefixedDrawsMatchOracle: a draw from the per-(peer, method) prefix
// is bit-identical to hashing the strings on every draw.
func TestPrefixedDrawsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	str := func() string {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		seed := rng.Int63() - rng.Int63()
		in := New(simclock.NewSimLoop(), seed, nil)
		peer, method := str(), str()
		n, salt := rng.Uint64()>>uint(rng.Intn(64)), uint64(rng.Intn(64))<<8|uint64(1+rng.Intn(3))
		got := unit(noise.Mix64(methodPrefix(in.peerHash(peer), method)^n), salt)
		if want := unitOracle(seed, peer, method, n, salt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d peer %q method %q n %d salt %#x: draw %v, oracle %v", seed, peer, method, n, salt, got, want)
		}
	}
}

// TestDropAllocs: a dropped call, answered with ErrTimeout at its deadline,
// allocates nothing once the injector holds an idle record — also when the
// caller's done issues the next call, which then reuses that record.
func TestDropAllocs(t *testing.T) {
	h := newHarness(t, 5, Rule{Peer: "agent/a1", Method: "*", DropP: 1})
	timeouts := 0
	var again bool
	var done func([]byte, error)
	done = func(_ []byte, err error) {
		if errors.Is(err, rpc.ErrTimeout) {
			timeouts++
		}
		if again {
			again = false
			h.client.Call("Echo", rpc.Empty, 10*time.Millisecond, done)
		}
	}
	call := func() {
		again = true
		h.client.Call("Echo", rpc.Empty, 10*time.Millisecond, done)
		h.loop.RunFor(50 * time.Millisecond)
	}
	call() // warm-up: the record
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Errorf("a dropped call allocates %v, want 0", n)
	}
	if timeouts != 204 || h.served != 0 {
		t.Fatalf("%d timeouts and %d served, want 204 and 0", timeouts, h.served)
	}
	if l := h.inj.free; l == nil || l.next != nil || l.done != nil {
		t.Fatal("want one idle record, emptied, after calls that never overlapped")
	}
}
