package transport

import (
	"fmt"
	"math/rand"
	"time"
)

// Resilience tunes the reconnecting client. A client dialled with a
// Resilience config (DialConfig with a non-nil Resilience) announces a
// resumable session to the server and, on connection loss, retries
// with exponential backoff + jitter, re-registers its streams when the
// server turns out to be fresh, and resumes the session at the new
// epoch in one hello. Against a server that still holds the session both
// directions are exactly-once: the published tuples and the results
// each end still holds are resent from where the other end stands.
// Subscriptions the server lost are resubmitted, and results the server
// no longer had are reported as a Gap on each subscription instead of
// killing it. The zero value of every field picks the documented
// default.
type Resilience struct {
	// MaxRetries bounds consecutive failed reconnect attempts per
	// outage; once exhausted the client fails permanently and every
	// subscription ends with the error. <= 0 means retry forever.
	MaxRetries int

	// MinBackoff is the delay before the first reconnect attempt
	// (default 50ms). Subsequent attempts double it, capped at
	// MaxBackoff (default 5s); each delay is jittered in [50%, 150%].
	MinBackoff time.Duration
	MaxBackoff time.Duration

	// HeartbeatInterval is the keepalive ping cadence (default 15s).
	// The client applies a read deadline of three intervals, so a dead
	// server is detected even when no results flow.
	HeartbeatInterval time.Duration
}

// Gap describes results lost across a reconnect. A server that still
// holds the session resends what the outage kept from the client, so a
// gap means data is truly gone. [From, To] is the range of the session's
// result sequence that the server dropped while the client was away —
// more than a window of results — and, the sequence counting the
// results of every subscription of the session, it bounds from above
// what this subscription lost (Lost is that bound). Unknown marks the
// harsher case — the server no longer knew the session (restart or
// linger expiry) and the subscription was resubmitted from scratch, so
// the loss cannot be quantified.
type Gap struct {
	Epoch    uint64 // session epoch after the reconnect that revealed the gap
	From, To uint64 // dropped session sequence range, inclusive (zero when Unknown)
	Unknown  bool   // resubmitted from scratch; loss unquantifiable
}

// Lost bounds the number of results lost from above (0 when Unknown).
func (g Gap) Lost() uint64 {
	if g.Unknown || g.To < g.From {
		return 0
	}
	return g.To - g.From + 1
}

func (g Gap) String() string {
	if g.Unknown {
		return fmt.Sprintf("gap[epoch %d: resubmitted, loss unknown]", g.Epoch)
	}
	return fmt.Sprintf("gap[epoch %d: lost %d..%d]", g.Epoch, g.From, g.To)
}

// Defaults.
const (
	defaultMinBackoff = 50 * time.Millisecond
	defaultMaxBackoff = 5 * time.Second
	defaultHeartbeat  = 15 * time.Second
)

// withDefaults fills zero fields.
func (r Resilience) withDefaults() Resilience {
	if r.MinBackoff <= 0 {
		r.MinBackoff = defaultMinBackoff
	}
	if r.MaxBackoff < r.MinBackoff {
		r.MaxBackoff = max(defaultMaxBackoff, r.MinBackoff)
	}
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = defaultHeartbeat
	}
	return r
}

// backoff computes the jittered delay before reconnect attempt n (1-based).
func (r Resilience) backoff(attempt int) time.Duration {
	d := r.MinBackoff
	for i := 1; i < attempt && d < r.MaxBackoff; i++ {
		d *= 2
	}
	d = min(d, r.MaxBackoff)
	// Jitter in [50%, 150%) so a fleet of clients does not hammer a
	// recovering server in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
