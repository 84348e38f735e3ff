// Package faults is a deterministic, seeded fault-injection layer for
// the rpc transports. It wraps any rpc.Client (and, for server-side
// at-least-once semantics, any rpc.Handler) and applies scripted
// drop/delay/duplicate/partition schedules keyed by (peer, method,
// virtual time).
//
// Determinism contract: every fault decision is a pure function of
// (seed, peer, method, per-(peer,method) call index, rule index) — a
// stateless noise.Mix64 hash, never a shared RNG stream — and all
// injected waits run on the simclock loop. Same seed + same schedule +
// same call sequence therefore yields byte-identical outcomes at any
// GOMAXPROCS or worker-pool width, so chaos runs are covered by the
// determinism golden sweep.
package faults

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynamo/internal/noise"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// Rule is one scripted fault. A rule matches a call when the peer and
// method globs match and the loop's virtual time lies in [From, Until)
// (Until <= 0 means forever). Globs are exact strings, "" or "*" for
// any, or a trailing-'*' prefix match ("agent/*").
//
// Matching rules compose: drop and duplicate probabilities are drawn
// independently per rule, delays add up. A drop wins over everything
// else — the request vanishes and the caller sees its timeout elapse
// (ErrUnreachable immediately if the call had no deadline to wait for).
type Rule struct {
	// Peer glob matched against the wrapped client's peer address.
	Peer string
	// Method glob matched against the call method ("Agent.ReadPower").
	Method string
	// From..Until is the virtual-time activity window. From <= 0 means
	// from the start; Until <= 0 means never expires.
	From  time.Duration
	Until time.Duration
	// DropP is the probability the request vanishes entirely.
	DropP float64
	// Delay (plus a uniform draw in [0, DelayJitter)) is added to the
	// request's delivery time.
	Delay       time.Duration
	DelayJitter time.Duration
	// DupP is the probability the request is issued twice (the caller
	// still sees exactly one completion; the remote executes twice).
	DupP float64
}

// Partition builds a rule that makes every call to peers matching glob
// vanish during [from, until) — a network partition as seen from the
// wrapped side.
func Partition(peerGlob string, from, until time.Duration) Rule {
	return Rule{Peer: peerGlob, Method: "*", From: from, Until: until, DropP: 1}
}

// Injector applies fault rules to wrapped clients. Safe for concurrent
// use, except that a wrapped client's Call and a wrapped handler run on
// the loop goroutine: the timers a call arms must, and the call indices
// they advance are loop-confined.
type Injector struct {
	loop simclock.Loop
	seed int64

	mu     sync.Mutex
	rules  []Rule
	nrules atomic.Int64          // len(rules), read without mu by every call
	peers  map[string]*peerIndex // per-(peer, method) call indices, shared by every wrapper of the peer
	free   *lapse                // idle records of dropped calls; loop-confined, like the timers they arm

	dropped    uint64
	delayed    uint64
	duplicated uint64

	tel *faultInstr
}

// New builds an injector. sink may be nil (no metrics).
func New(loop simclock.Loop, seed int64, sink *telemetry.Sink) *Injector {
	in := &Injector{loop: loop, seed: seed, peers: make(map[string]*peerIndex)}
	if sink != nil {
		in.tel = newFaultInstr(sink)
	}
	return in
}

// Add appends rules to the schedule. Callable mid-run (from the loop or
// a scenario callback); rules only affect calls issued after the add.
func (in *Injector) Add(rules ...Rule) {
	in.mu.Lock()
	in.rules = append(in.rules, rules...)
	in.nrules.Store(int64(len(in.rules)))
	in.mu.Unlock()
}

// Heal closes, at the loop's current time, every open-ended rule
// (Until <= 0) whose Peer is exactly peerGlob, for scenarios that end a
// partition from a callback at a time they cannot script up front. Rules
// keep their positions, so no other rule's draws move.
func (in *Injector) Heal(peerGlob string) {
	now := in.loop.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.rules {
		r := &in.rules[i]
		if r.Peer != peerGlob || r.Until > 0 {
			continue
		}
		if now > 0 {
			r.Until = now
		} else {
			r.From, r.Until = 1, 1 // Until 0 would mean forever; an empty window instead
		}
	}
}

// Counts reports how many faults have been injected so far.
func (in *Injector) Counts() (dropped, delayed, duplicated uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dropped, in.delayed, in.duplicated
}

// WrapClient routes every call on c through the fault schedule, keyed by
// the given peer address.
func (in *Injector) WrapClient(peer string, c rpc.Client) rpc.Client {
	return &faultClient{in: in, idx: in.index(peer), next: c}
}

// WrapHandler applies the schedule on the server side, keyed by the
// serving peer's own address: a drop becomes a remote error (the
// transport delivers it; a true server-side black hole cannot be
// expressed through a synchronous handler), and a duplicate executes the
// handler twice before answering — at-least-once delivery, for flushing
// out non-idempotent handlers. Delay rules are ignored here: a handler
// must not block its loop.
func (in *Injector) WrapHandler(peer string, h rpc.Handler) rpc.Handler {
	idx := in.index(peer)
	return func(method string, body []byte) (wire.Message, error) {
		v := in.verdict(idx, method)
		if v.drop {
			in.note(&in.dropped)
			in.tel.drop()
			return nil, fmt.Errorf("faults: request dropped by server %s", peer)
		}
		if v.dup {
			in.note(&in.duplicated)
			in.tel.dup()
			if _, err := h(method, body); err != nil {
				return nil, err
			}
		}
		return h(method, body)
	}
}

type verdict struct {
	drop  bool
	delay time.Duration
	dup   bool
}

// counter is one (peer, method)'s call index n, beside the start of every
// draw's hash for the pair (methodPrefix; the seed is fixed at New).
type counter struct {
	method    string
	n, prefix uint64
}

// peerIndex is one peer's per-method call indices. Every wrapper of the
// peer shares it, and it is made when the first one is, so a call finds
// its counter by scanning a handful of methods, and the first call of a
// method claims a counter without allocating: methods is backed by inline
// until a fifth method spills it to a slice of its own (an agent is called
// with four). Loop-confined, like the calls that advance it.
type peerIndex struct {
	peer    string
	hash    uint64    // peerHash(peer): what every method's prefix starts from
	methods []counter // in the order they were first called
	inline  [4]counter
}

// index returns peer's call index, making it on first use.
func (in *Injector) index(peer string) *peerIndex {
	in.mu.Lock()
	defer in.mu.Unlock()
	pi := in.peers[peer]
	if pi == nil {
		pi = &peerIndex{peer: peer, hash: in.peerHash(peer)}
		pi.methods = pi.inline[:0]
		in.peers[peer] = pi
	}
	return pi
}

// next returns this call's index and its pair's hash prefix, and advances
// the pair's counter.
func (pi *peerIndex) next(method string) (n, prefix uint64) {
	var c *counter
	for i := range pi.methods {
		if pi.methods[i].method == method {
			c = &pi.methods[i]
			break
		}
	}
	if c == nil {
		pi.methods = append(pi.methods, counter{method: method, prefix: methodPrefix(pi.hash, method)})
		c = &pi.methods[len(pi.methods)-1]
	}
	c.n++
	return c.n - 1, c.prefix
}

// peerHash and methodPrefix hash what every draw for a (peer, method) pair
// starts from: Mix64(Mix64(seed ^ FNV(peer)) ^ FNV(method)).
func (in *Injector) peerHash(peer string) uint64 {
	return noise.Mix64(uint64(in.seed) ^ noise.FNV64a(peer))
}

func methodPrefix(peerHash uint64, method string) uint64 {
	return noise.Mix64(peerHash ^ noise.FNV64a(method))
}

// verdict draws this call's fate from the schedule. The per-(peer,
// method) call index advances on every call — matched or not — so adding
// a rule for one peer never shifts another peer's draws, and a rule added
// mid-run finds every index where the calls so far left it. With no rules
// that increment and one atomic load are all a call costs; the lock is
// taken only to read the rules.
func (in *Injector) verdict(pi *peerIndex, method string) verdict {
	n, prefix := pi.next(method)
	if in.nrules.Load() == 0 {
		return verdict{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.draw(pi.peer, method, n, prefix)
}

// draw evaluates the schedule for the n-th call of method to peer (hash
// prefix prefix): a pure function of its arguments, the seed, the rules
// and the loop's clock. Callers hold in.mu.
func (in *Injector) draw(peer, method string, n, prefix uint64) verdict {
	now := in.loop.Now()
	call := noise.Mix64(prefix ^ n)
	var v verdict
	for i, r := range in.rules {
		if now < r.From || (r.Until > 0 && now >= r.Until) {
			continue
		}
		if !matchGlob(r.Peer, peer) || !matchGlob(r.Method, method) {
			continue
		}
		salt := uint64(i) << 8
		if r.DropP > 0 && unit(call, salt|1) < r.DropP {
			v.drop = true
		}
		if r.Delay > 0 || r.DelayJitter > 0 {
			d := r.Delay
			if r.DelayJitter > 0 {
				d += time.Duration(float64(r.DelayJitter) * unit(call, salt|2))
			}
			v.delay += d
		}
		if r.DupP > 0 && unit(call, salt|3) < r.DupP {
			v.dup = true
		}
	}
	return v
}

// note bumps an injection counter; the caller bumps the matching metric.
func (in *Injector) note(c *uint64) {
	in.mu.Lock()
	*c++
	in.mu.Unlock()
}

// matchGlob matches pattern against s: "" or "*" matches anything, a
// trailing '*' is a prefix match, anything else is exact.
func matchGlob(pattern, s string) bool {
	if pattern == "" || pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(s, pattern[:len(pattern)-1])
	}
	return pattern == s
}

// faultClient is the client-side wrapper.
type faultClient struct {
	in   *Injector
	idx  *peerIndex
	next rpc.Client
}

// Call implements rpc.Client, applying the schedule before delegating.
func (c *faultClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	v := c.in.verdict(c.idx, method)
	if v == (verdict{}) {
		c.next.Call(method, req, timeout, done)
		return
	}
	if v.drop {
		c.in.note(&c.in.dropped)
		c.in.tel.drop()
		// The request vanishes: the caller sees its deadline elapse. With
		// no deadline there is nothing to wait for, so it is told at once
		// that the peer cannot be reached.
		if timeout > 0 {
			c.in.fail(timeout, rpc.ErrTimeout, done)
		} else {
			c.in.fail(0, rpc.ErrUnreachable, done)
		}
		return
	}
	remaining := timeout
	if v.delay > 0 {
		c.in.note(&c.in.delayed)
		c.in.tel.delay()
		if timeout > 0 {
			if v.delay >= timeout {
				// The response cannot make the deadline; equivalent to a
				// drop from the caller's side.
				c.in.fail(timeout, rpc.ErrTimeout, done)
				return
			}
			remaining = timeout - v.delay
		}
	}
	issue := func() {
		if !v.dup {
			c.next.Call(method, req, remaining, done)
			return
		}
		c.in.note(&c.in.duplicated)
		c.in.tel.dup()
		var once sync.Once
		guard := func(resp []byte, err error) {
			once.Do(func() { done(resp, err) })
		}
		c.next.Call(method, req, remaining, guard)
		c.next.Call(method, req, remaining, guard)
	}
	if v.delay > 0 {
		c.in.loop.After(v.delay, issue)
	} else {
		issue()
	}
}

// Close implements rpc.Client.
func (c *faultClient) Close() error { return c.next.Close() }

// lapse is a dropped call waiting out the caller's deadline, on a pooled
// record (timer embedded, callback bound once). One free list serves every
// wrapper, so only calls in flight hold a record.
type lapse struct {
	in   *Injector
	t    simclock.Timer
	done func([]byte, error)
	err  error
	fire func() // l.fired
	next *lapse
}

// fail tells done err after d, on the loop.
func (in *Injector) fail(d time.Duration, err error, done func([]byte, error)) {
	l := in.free
	if l == nil {
		l = &lapse{in: in}
		l.fire = l.fired
	} else {
		in.free = l.next
	}
	l.done, l.err = done, err
	in.loop.Arm(&l.t, d, l.fire)
}

// fired frees the record before done runs, so done's next call may reuse it.
func (l *lapse) fired() {
	done, err := l.done, l.err
	l.done, l.next, l.in.free = nil, l.in.free, l
	done(nil, err)
}

// faultInstr holds the injector's metrics; nil when telemetry is off, so
// its methods guard their receiver.
type faultInstr struct {
	dropped    *telemetry.Counter
	delayed    *telemetry.Counter
	duplicated *telemetry.Counter
}

func (t *faultInstr) drop() {
	if t == nil {
		return
	}
	t.dropped.Inc()
}

func (t *faultInstr) delay() {
	if t == nil {
		return
	}
	t.delayed.Inc()
}

func (t *faultInstr) dup() {
	if t == nil {
		return
	}
	t.duplicated.Inc()
}

func newFaultInstr(s *telemetry.Sink) *faultInstr {
	return &faultInstr{
		dropped:    s.Counter("dynamo_faults_dropped_total"),
		delayed:    s.Counter("dynamo_faults_delayed_total"),
		duplicated: s.Counter("dynamo_faults_duplicated_total"),
	}
}

// unit returns a uniform float in [0, 1) determined purely by a call's
// hash, Mix64(prefix ^ n), and the salt naming the rule and the draw.
func unit(call, salt uint64) float64 {
	return float64(noise.Mix64(call^salt)>>11) / float64(1<<53)
}
