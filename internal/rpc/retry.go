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
	// OnRetry, if set, observes each re-attempt (attempt counts from 1)
	// with the error that triggered it. Runs on the loop goroutine.
	OnRetry func(attempt int, err error)
}

// Enabled reports whether the policy performs any retries.
func (p RetryPolicy) Enabled() bool { return p.MaxRetries > 0 }

// withDefaults fills Backoff/BackoffMax.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 8 * p.Backoff
	}
	return p
}

// Retryable reports whether err is worth retrying: transport-level
// timeouts and unreachability are; application (remote) errors and a
// locally closed client are not.
func Retryable(err error) bool {
	return err == ErrTimeout || err == ErrUnreachable
}

// CallRetry issues c.Call with bounded retries under p. key names the
// callee for jitter purposes (typically the peer id) so concurrent
// retriers against different peers don't thunder in lockstep. done is
// invoked exactly once, on the loop goroutine, with the final outcome.
//
// With p.MaxRetries <= 0 this is exactly c.Call.
func CallRetry(loop simclock.Loop, c Client, method, key string, req wire.Message, timeout time.Duration, p RetryPolicy, done func(resp []byte, err error)) {
	if !p.Enabled() {
		c.Call(method, req, timeout, done)
		return
	}
	p = p.withDefaults()
	start := loop.Now()
	var attempt func(n int)
	attempt = func(n int) {
		attemptTimeout := timeout
		if p.Budget > 0 {
			remaining := p.Budget - (loop.Now() - start)
			if remaining <= 0 {
				// Budget exhausted before this attempt could start.
				done(nil, ErrTimeout)
				return
			}
			if attemptTimeout <= 0 || attemptTimeout > remaining {
				attemptTimeout = remaining
			}
		}
		c.Call(method, req, attemptTimeout, func(resp []byte, err error) {
			if err == nil || !Retryable(err) || n >= p.MaxRetries {
				done(resp, err)
				return
			}
			backoff := p.backoff(key, method, n)
			if p.Budget > 0 && loop.Now()-start+backoff >= p.Budget {
				// No room for a further attempt after the backoff.
				done(resp, err)
				return
			}
			if p.OnRetry != nil {
				p.OnRetry(n+1, err)
			}
			loop.After(backoff, func() { attempt(n + 1) })
		})
	}
	attempt(0)
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
		u := hashUnit(p.Seed, key, method, uint64(n))
		b = time.Duration(float64(b) * (1 + p.JitterFrac*(2*u-1)))
		if b < time.Millisecond {
			b = time.Millisecond
		}
	}
	return b
}

// hashUnit maps (seed, key, method, n) to a uniform float in [0, 1)
// via noise.Mix64 over FNV-1a string hashes.
func hashUnit(seed int64, key, method string, n uint64) float64 {
	h := noise.Mix64(uint64(seed) ^ noise.FNV64a(key))
	h = noise.Mix64(h ^ noise.FNV64a(method))
	h = noise.Mix64(h ^ n)
	return float64(h>>11) / float64(1<<53)
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
