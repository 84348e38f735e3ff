package rpc

import (
	"time"

	"dynamo/internal/noise"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// RetryPolicy bounds transport-level retries for a Call. The zero value
// disables retries (single attempt, unchanged semantics).
//
// Backoff between attempt n and n+1 is Backoff<<n capped at BackoffMax,
// multiplied by a deterministic jitter in [1-JitterFrac, 1+JitterFrac]
// drawn from a stateless hash of (Seed, key, method, attempt) — no
// shared RNG, so concurrent retriers at any parallelism produce the
// same per-call schedules and chaos runs stay byte-identical.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first call
	// (0 disables retries entirely).
	MaxRetries int
	// Backoff is the base delay before the first retry. Default 50ms.
	Backoff time.Duration
	// BackoffMax caps the exponential growth. Default 8×Backoff.
	BackoffMax time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac (0..1).
	JitterFrac float64
	// Seed feeds the jitter hash.
	Seed int64
	// Budget bounds the total time spent across all attempts, measured
	// from the first call. An attempt is only started if enough budget
	// remains; its timeout is clipped to the remainder. <= 0 means
	// attempts alone bound the call.
	Budget time.Duration
	// OnRetry, if set, observes each re-attempt of method to key (attempt
	// counts from 1) with the error that triggered it. Runs on the loop
	// goroutine.
	OnRetry func(key, method string, attempt int, err error)
}

// Retrier issues calls with bounded retries under one policy, on its loop.
// A call rides a pooled record (attempt state, backoff timer, callbacks
// bound once), so in steady state it allocates nothing. The record is freed
// just before done runs — Client.Call delivers each attempt's outcome
// exactly once, so nothing of the call is queued — and done may reuse it.
type Retrier struct {
	loop simclock.Loop
	p    RetryPolicy // defaults filled
	free *retryCall
}

// NewRetrier returns a Retrier for p, filling in Backoff and BackoffMax.
// With p.MaxRetries <= 0 its Call is exactly c.Call.
func NewRetrier(loop simclock.Loop, p RetryPolicy) *Retrier {
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 8 * p.Backoff
	}
	return &Retrier{loop: loop, p: p}
}

// retryCall is one retried call; n is the attempt in flight, from 0.
type retryCall struct {
	r              *Retrier
	c              Client
	method, key    string
	req            wire.Message
	timeout, start time.Duration
	n              int
	done, onReply  func([]byte, error) // onReply is rc.replied
	onBackoff      func()              // rc.attempt
	backoff        simclock.Timer
	next           *retryCall // free-list link
}

// Call issues c.Call with bounded retries. key names the callee for jitter
// purposes (typically the peer id) so concurrent retriers against
// different peers don't thunder in lockstep. done is invoked exactly once,
// on the loop goroutine, with the final outcome.
func (r *Retrier) Call(c Client, method, key string, req wire.Message, timeout time.Duration, done func(resp []byte, err error)) {
	if r.p.MaxRetries <= 0 {
		c.Call(method, req, timeout, done)
		return
	}
	rc := r.free
	if rc == nil {
		rc = &retryCall{r: r}
		rc.onReply, rc.onBackoff = rc.replied, rc.attempt
	} else {
		r.free = rc.next
	}
	rc.c, rc.method, rc.key, rc.req, rc.timeout, rc.done = c, method, key, req, timeout, done
	rc.start, rc.n = r.loop.Now(), 0
	rc.attempt()
}

func (rc *retryCall) attempt() {
	p, timeout := &rc.r.p, rc.timeout
	if p.Budget > 0 {
		remaining := p.Budget - (rc.r.loop.Now() - rc.start)
		if remaining <= 0 {
			// Budget exhausted before this attempt could start.
			rc.finish(nil, ErrTimeout)
			return
		}
		if timeout <= 0 || timeout > remaining {
			timeout = remaining
		}
	}
	rc.c.Call(rc.method, rc.req, timeout, rc.onReply)
}

// replied retries transport-level timeouts and unreachability; remote
// errors and a locally closed client are final.
func (rc *retryCall) replied(resp []byte, err error) {
	r, p := rc.r, &rc.r.p
	if err == nil || (err != ErrTimeout && err != ErrUnreachable) || rc.n >= p.MaxRetries {
		rc.finish(resp, err)
		return
	}
	backoff := p.backoff(rc.key, rc.method, rc.n)
	if p.Budget > 0 && r.loop.Now()-rc.start+backoff >= p.Budget {
		// No room for a further attempt after the backoff.
		rc.finish(resp, err)
		return
	}
	rc.n++
	if p.OnRetry != nil {
		p.OnRetry(rc.key, rc.method, rc.n, err)
	}
	r.loop.Arm(&rc.backoff, backoff, rc.onBackoff)
}

// finish frees the record, then delivers the outcome.
func (rc *retryCall) finish(resp []byte, err error) {
	r, done := rc.r, rc.done
	rc.c, rc.req, rc.done = nil, nil, nil
	rc.next, r.free = r.free, rc
	done(resp, err)
}

// backoff computes the jittered delay before attempt n+1.
func (p RetryPolicy) backoff(key, method string, n int) time.Duration {
	shift := uint(n)
	if shift > 20 {
		shift = 20
	}
	b := p.Backoff << shift
	if b > p.BackoffMax || b <= 0 {
		b = p.BackoffMax
	}
	if p.JitterFrac > 0 {
		// A uniform draw in [0, 1) from a stateless hash of (seed, key, method, n).
		h := noise.Mix64(noise.Mix64(uint64(p.Seed)^noise.FNV64a(key)) ^ noise.FNV64a(method))
		u := float64(noise.Mix64(h^uint64(n))>>11) / float64(1<<53)
		b = time.Duration(float64(b) * (1 + p.JitterFrac*(2*u-1)))
		if b < time.Millisecond {
			b = time.Millisecond
		}
	}
	return b
}

// WithDefaultTimeout wraps c so calls issued without a deadline
// (timeout <= 0) get d instead — the normalization layer daemons use so
// no production path ever blocks unboundedly on a dead peer.
func WithDefaultTimeout(c Client, d time.Duration) Client {
	if d <= 0 {
		return c
	}
	return &defaultTimeoutClient{next: c, d: d}
}

type defaultTimeoutClient struct {
	next Client
	d    time.Duration
}

// Call implements Client.
func (c *defaultTimeoutClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	if timeout <= 0 {
		timeout = c.d
	}
	c.next.Call(method, req, timeout, done)
}

// Close implements Client.
func (c *defaultTimeoutClient) Close() error { return c.next.Close() }
