package agent

import (
	"testing"
	"time"

	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// leaseFixture is a test agent on a sim loop with the lease fail-safe
// armed, plus a capture of expiry callbacks.
type leaseFixture struct {
	a       *Agent
	loop    *simclock.SimLoop
	expired []power.Watts
}

func newLeaseFixture(t *testing.T, defaultTTL time.Duration) *leaseFixture {
	t.Helper()
	a, _ := newTestAgent(t, 0.8, platform.Options{Seed: 3})
	lf := &leaseFixture{a: a, loop: simclock.NewSimLoop()}
	a.EnableLease(lf.loop, defaultTTL, func(id string, limit power.Watts) {
		lf.expired = append(lf.expired, limit)
	})
	return lf
}

// apply runs a cap/lease call on the loop goroutine — as the in-proc
// transport and rpc.LoopHandler both guarantee in production, which is
// what makes the agent's lease timer loop-confined — and checks the
// CapResponse verdict.
func (lf *leaseFixture) apply(t *testing.T, method string, req wire.Message, wantOK bool) {
	t.Helper()
	lf.loop.Post(func() {
		var body []byte
		if req != nil {
			body = wire.Marshal(req)
		}
		m, err := lf.a.Handler()(method, body)
		if err != nil {
			t.Errorf("%s: %v", method, err)
			return
		}
		if resp, ok := m.(*CapResponse); ok && resp.OK != wantOK {
			t.Errorf("%s: OK=%v (%s), want %v", method, resp.OK, resp.Msg, wantOK)
		}
	})
	lf.loop.RunFor(0)
}

// capped reads the agent's cap state through its own protocol.
func (lf *leaseFixture) capped(t *testing.T) bool {
	t.Helper()
	var capped bool
	lf.loop.Post(func() {
		m, err := lf.a.Handler()(MethodReadPower, nil)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		capped = m.(*ReadPowerResponse).Capped
	})
	lf.loop.RunFor(0)
	return capped
}

func TestAgentLeaseExpiresUnrenewedCap(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)}, true)
	if !lf.capped(t) {
		t.Fatal("cap not applied")
	}
	lf.loop.RunUntil(9 * time.Second)
	if !lf.capped(t) {
		t.Fatal("cap released before TTL")
	}
	lf.loop.RunUntil(11 * time.Second)
	if lf.capped(t) {
		t.Fatal("cap survived its lease")
	}
	if len(lf.expired) != 1 || lf.expired[0] != 180 {
		t.Errorf("onExpire = %v, want [180]", lf.expired)
	}
}

func TestAgentLeaseRenewalKeepsCap(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)}, true)
	// A renewing pull every 6 s: the cap must survive far beyond any
	// single TTL.
	renewing := wire.Marshal(&ReadPowerRequest{LeaseNanos: uint64(10 * time.Second)})
	for at := 6 * time.Second; at <= 60*time.Second; at += 6 * time.Second {
		lf.loop.RunUntil(at)
		if r, err := lf.read(t, renewing); err != nil || !r.Capped {
			t.Fatalf("renewing read at %v: capped %v, err %v", at, r.Capped, err)
		}
	}
	if !lf.capped(t) {
		t.Fatal("renewed cap was released")
	}
	if len(lf.expired) != 0 {
		t.Errorf("expiries = %d, want 0", len(lf.expired))
	}
	// Stop renewing: released one TTL later.
	lf.loop.RunUntil(75 * time.Second)
	if lf.capped(t) {
		t.Fatal("cap survived after renewals stopped")
	}
}

func TestAgentClearCapStopsLease(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)}, true)
	lf.apply(t, MethodClearCap, nil, true)
	lf.loop.RunUntil(time.Minute)
	if len(lf.expired) != 0 {
		t.Errorf("onExpire fired after a clean clear: %v", lf.expired)
	}
}

func TestAgentDefaultTTLGuardsUnleasedCaps(t *testing.T) {
	lf := newLeaseFixture(t, 8*time.Second)
	// An old controller that sends no lease still gets the agent-side
	// default TTL fail-safe.
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180}, true)
	lf.loop.RunUntil(10 * time.Second)
	if lf.capped(t) {
		t.Fatal("default TTL did not release the unleased cap")
	}
	if len(lf.expired) != 1 {
		t.Errorf("expiries = %d, want 1", len(lf.expired))
	}
}

// TestAgentLeaseGuardsInheritedCap starts an agent over a platform that
// is already capped, as a restarted agent process finds it: the default
// TTL must release that cap when no controller renews it.
func TestAgentLeaseGuardsInheritedCap(t *testing.T) {
	a, _ := newTestAgent(t, 0.8, platform.Options{Seed: 3})
	if err := a.plat.SetPowerLimit(180); err != nil {
		t.Fatal(err)
	}
	lf := &leaseFixture{loop: simclock.NewSimLoop()}
	lf.a = New("srv1", "web", "haswell2015", a.plat)
	lf.a.EnableLease(lf.loop, 8*time.Second, func(id string, limit power.Watts) {
		lf.expired = append(lf.expired, limit)
	})
	lf.loop.RunUntil(7 * time.Second)
	if !lf.capped(t) {
		t.Fatal("the inherited cap was released before its lease ran out")
	}
	lf.loop.RunUntil(10 * time.Second)
	if lf.capped(t) {
		t.Fatal("the inherited cap outlived the default TTL")
	}
	if len(lf.expired) != 1 || lf.expired[0] != 180 {
		t.Errorf("onExpire saw %v, want [180]", lf.expired)
	}
}

// TestAgentStopKeepsLimit: a stopped agent, a dead process, leaves its
// limit on the platform and no lease timer behind; a fresh agent over the
// same platform guards the cap it inherits with its default TTL.
func TestAgentStopKeepsLimit(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)}, true)
	lf.loop.Post(lf.a.Stop)
	lf.loop.RunUntil(time.Minute)
	if lim, capped := lf.a.Platform().PowerLimit(); !capped || lim != 180 || lf.loop.Pending() != 0 || len(lf.expired) != 0 {
		t.Fatalf("a minute after Stop: limit %v (capped %v), %d timers pending, expired %v; want 180, true, 0, none",
			lim, capped, lf.loop.Pending(), lf.expired)
	}
	fresh := New("srv1", "web", "", lf.a.Platform())
	fresh.EnableLease(lf.loop, 8*time.Second, func(id string, limit power.Watts) {
		lf.expired = append(lf.expired, limit)
	})
	lf.loop.RunUntil(time.Minute + 9*time.Second)
	if _, capped := lf.a.Platform().PowerLimit(); capped || len(lf.expired) != 1 || lf.expired[0] != 180 {
		t.Fatalf("after a restart: capped %v, expired %v; want false, [180]", capped, lf.expired)
	}
}

func TestAgentNoLeaseNoTTLCapHoldsForever(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180}, true)
	lf.loop.RunUntil(10 * time.Minute)
	if !lf.capped(t) {
		t.Fatal("unleased cap with no default TTL must hold")
	}
}

func TestAgentLeaseReplacedBySecondSetCap(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(5 * time.Second)}, true)
	lf.loop.RunUntil(4 * time.Second)
	// A new SetCap re-arms the lease from now.
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 170, LeaseNanos: uint64(5 * time.Second)}, true)
	lf.loop.RunUntil(8 * time.Second)
	if !lf.capped(t) {
		t.Fatal("second SetCap's lease should still be live")
	}
	lf.loop.RunUntil(10 * time.Second)
	if lf.capped(t) {
		t.Fatal("cap survived the replacement lease")
	}
}

// TestRenewLeaseAllocs: a steady-state renewal re-arms the agent's own
// lease timer with its bound expiry, so it allocates nothing. It calls
// renew, which serves renewing pulls; TestCapRequestDecodeAllocs covers
// the decode.
func TestRenewLeaseAllocs(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)}, true)
	if n := testing.AllocsPerRun(1000, func() {
		lf.a.renew(10 * time.Second)
		lf.loop.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("a renewal allocates %v per run, want 0", n)
	}
	if lf.loop.Pending() != 1 || !lf.capped(t) || len(lf.expired) != 0 {
		t.Errorf("after renewals: Pending %d, capped %v, expiries %d; want 1, true, 0",
			lf.loop.Pending(), lf.capped(t), len(lf.expired))
	}

	// The same renewals on a WallLoop's goroutine, as dynamo-agentd serves
	// them: the lease is re-armed in the same queue there.
	w := simclock.NewWallLoop()
	defer w.Close()
	wa, _ := newTestAgent(t, 0.8, platform.Options{Seed: 3})
	wa.EnableLease(w, 0, nil)
	setCap := wire.Marshal(&SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)})
	var wallAllocs float64
	w.Call(func() {
		if m, err := wa.Handler()(MethodSetCap, setCap); err != nil || m != capOK {
			t.Errorf("SetCap on a WallLoop: %v, %v", m, err)
		}
		wallAllocs = testing.AllocsPerRun(1000, func() {
			wa.renew(10 * time.Second)
		})
	})
	if wallAllocs != 0 {
		t.Errorf("a renewal on a WallLoop allocates %v per run, want 0", wallAllocs)
	}
}

// TestCapRequestDecodeAllocs: the handler decodes SetCap and renewing
// ReadPower requests on its stack, so serving the agent's three methods
// allocates nothing — with the lease fail-safe armed, and on an agent
// that carries no extras at all.
func TestCapRequestDecodeAllocs(t *testing.T) {
	setCap := wire.Marshal(&SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(10 * time.Second)})
	renew := wire.Marshal(&ReadPowerRequest{LeaseNanos: uint64(10 * time.Second)})
	serve := func(h func(string, []byte) (wire.Message, error), method string, body []byte) {
		if m, err := h(method, body); err != nil || (method != MethodReadPower && m != capOK) {
			t.Fatalf("%s: %v, %v", method, m, err)
		}
	}
	lf := newLeaseFixture(t, 0)
	h := lf.a.Handler()
	if n := testing.AllocsPerRun(1000, func() {
		serve(h, MethodClearCap, nil)
		serve(h, MethodSetCap, setCap)
		serve(h, MethodReadPower, renew)
		lf.loop.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("serving ClearCap, SetCap and a renewing ReadPower allocates %v per run, want 0", n)
	}
	if len(lf.expired) != 0 || !lf.capped(t) {
		t.Errorf("after renewals: expired %v, capped %v; want none, true", lf.expired, lf.capped(t))
	}

	bare, _ := newTestAgent(t, 0.8, platform.Options{Seed: 3})
	h = bare.Handler()
	if n := testing.AllocsPerRun(1000, func() {
		serve(h, MethodClearCap, nil)
		serve(h, MethodSetCap, setCap)
		serve(h, MethodReadPower, renew)
	}); n != 0 {
		t.Errorf("an agent without extras allocates %v per ClearCap, SetCap and renewing ReadPower, want 0", n)
	}
	if bare.x != nil {
		t.Error("serving caps gave the agent extras")
	}
}

// read serves a pull with the given body on the loop goroutine and returns
// the reading, or the handler's error.
func (lf *leaseFixture) read(t *testing.T, body []byte) (r ReadPowerResponse, err error) {
	t.Helper()
	lf.loop.Post(func() {
		var m wire.Message
		if m, err = lf.a.Handler()(MethodReadPower, body); err == nil {
			r = *m.(*ReadPowerResponse)
		}
	})
	lf.loop.RunFor(0)
	return r, err
}

// TestAgentRenewingRead: a pull that carries a TTL renews the lease of the
// cap the agent holds; an empty body is a plain read that leaves the lease
// alone; and a renewing pull of an uncapped agent arms nothing.
func TestAgentRenewingRead(t *testing.T) {
	const ttl = 10 * time.Second
	renewing := wire.Marshal(&ReadPowerRequest{LeaseNanos: uint64(ttl)})
	if plain := wire.Marshal(&ReadPowerRequest{}); len(plain) != 0 {
		t.Fatalf("a read without a lease encodes as %x, want no bytes", plain)
	}
	lf := newLeaseFixture(t, 0)
	if r, err := lf.read(t, renewing); err != nil || r.Capped || lf.loop.Pending() != 0 {
		t.Fatalf("renewing read of an uncapped agent: capped %v, err %v, %d timers pending; want false, nil, 0",
			r.Capped, err, lf.loop.Pending())
	}

	// Plain reads do not renew: the cap lapses one TTL after SetCap.
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(ttl)}, true)
	for at := 3 * time.Second; at <= 9*time.Second; at += 3 * time.Second {
		lf.loop.RunUntil(at)
		if r, err := lf.read(t, nil); err != nil || !r.Capped {
			t.Fatalf("plain read at %v: capped %v, err %v", at, r.Capped, err)
		}
	}
	lf.loop.RunUntil(ttl + time.Second)
	if lf.capped(t) || len(lf.expired) != 1 {
		t.Fatalf("after plain reads: capped %v, %d expiries; want false, 1", lf.capped(t), len(lf.expired))
	}

	// Renewing reads every 3 s keep the next cap far past its TTL, and
	// once they stop it lapses one TTL after the last.
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(ttl)}, true)
	last := 59 * time.Second
	for at := 14 * time.Second; at <= last; at += 3 * time.Second {
		lf.loop.RunUntil(at)
		if r, err := lf.read(t, renewing); err != nil || !r.Capped {
			t.Fatalf("renewing read at %v: capped %v, err %v", at, r.Capped, err)
		}
	}
	lf.loop.RunUntil(last + ttl - time.Second)
	if !lf.capped(t) || len(lf.expired) != 1 {
		t.Fatalf("under renewing reads: capped %v, %d expiries; want true, 1", lf.capped(t), len(lf.expired))
	}
	lf.loop.RunUntil(last + ttl + time.Second)
	if lf.capped(t) || len(lf.expired) != 2 {
		t.Fatalf("after renewing reads stopped: capped %v, %d expiries; want false, 2", lf.capped(t), len(lf.expired))
	}

	// A renewing read decodes on the handler's stack and re-arms the
	// agent's own timer: it allocates nothing.
	lf.apply(t, MethodSetCap, &SetCapRequest{LimitWatts: 180, LeaseNanos: uint64(ttl)}, true)
	h := lf.a.Handler()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := h(MethodReadPower, renewing); err != nil {
			t.Fatal(err)
		}
		lf.loop.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("a renewing read allocates %v times, want 0", n)
	}
}

// TestAgentMalformedReadBody: a pull whose lease is a truncated varint is
// refused with an error, counted as one, and reads nothing.
func TestAgentMalformedReadBody(t *testing.T) {
	lf := newLeaseFixture(t, 0)
	if _, err := lf.read(t, []byte{0x80}); err == nil {
		t.Fatal("a truncated lease decoded")
	}
	if reads, _, _, errs := lf.a.Stats(); reads != 0 || errs != 1 {
		t.Errorf("after a malformed read: %d reads, %d errors; want 0, 1", reads, errs)
	}
}
