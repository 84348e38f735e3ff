package core

import (
	"time"

	"dynamo/internal/rpc"
)

// RetryConfig bounds a controller's downstream RPC retries (power pulls,
// cap/uncap commands, contract sends). The zero value means one attempt
// per call. One call's attempts together may take at most 90% of the
// controller's poll interval, so a retrying pull can never bleed into the
// next cycle.
type RetryConfig struct {
	// MaxRetries is the number of re-attempts after the first call.
	MaxRetries int
	// Backoff is the base delay before the first retry (default 50ms);
	// growth is exponential, capped at 8×Backoff.
	Backoff time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac, drawn from a
	// stateless hash of (Seed, peer, method, attempt) so chaos runs stay
	// deterministic at any parallelism.
	JitterFrac float64
	Seed       int64
}

// Enabled reports whether any retries are configured.
func (c RetryConfig) Enabled() bool { return c.MaxRetries > 0 }

// policy derives the rpc-layer retry policy for a controller polling every
// pollInterval.
func (c RetryConfig) policy(pollInterval time.Duration) rpc.RetryPolicy {
	return rpc.RetryPolicy{
		MaxRetries: c.MaxRetries,
		Backoff:    c.Backoff,
		JitterFrac: c.JitterFrac,
		Seed:       c.Seed,
		Budget:     pollInterval * 9 / 10,
	}
}
