// Shard-aware scatter dispatch for the scale-out serving tier. A Dispatcher
// fans a query's partitions out concurrently and asks its ShardGate (the
// router's health state machine) before every attempt; the gate alone
// decides which shards take traffic. Shards are data-symmetric replicas —
// every shard holds the full table and any shard can score any partition —
// so resilience is rerouting: when the gate refuses a shard or a sub-call
// fails, its partition moves to the next replica. Only when every route is
// exhausted does a partition degrade to a typed partial result
// (PartialError), never to silently missing or zero-valued predictions.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"accelscore/internal/pipeline"
)

// ErrAllShardsRefused is the per-partition error when the gate refused
// every shard that could serve it, so no attempt ran at all.
var ErrAllShardsRefused = errors.New("exec: the shard gate refused every candidate shard")

// ErrShardBusy marks a refusal by a saturated shard. The partition reroutes,
// but the refusal is no health signal: a loaded shard is not a sick one.
var ErrShardBusy = errors.New("exec: shard busy")

// ShardFunc executes one partition of a query on one shard, returning the
// shard's (opaque to the dispatcher) sub-result. Implementations signal
// query-level errors — ones that would fail identically on every replica,
// like a malformed statement — by wrapping them with NoReroute.
type ShardFunc func(ctx context.Context, shard int, part pipeline.Partition) (any, error)

// noRerouteError marks an error as the query's fault, not the shard's:
// rerouting would fail everywhere, and the shard's health stays untouched.
type noRerouteError struct{ err error }

func (e *noRerouteError) Error() string { return e.err.Error() }
func (e *noRerouteError) Unwrap() error { return e.err }

// NoReroute wraps an error so the dispatcher fails the partition
// immediately instead of rerouting it and charging the shard's health.
func NoReroute(err error) error {
	if err == nil {
		return nil
	}
	return &noRerouteError{err: err}
}

// rerouteable reports whether the dispatcher may retry err on another shard.
func rerouteable(err error) bool {
	var nr *noRerouteError
	return !errors.As(err, &nr)
}

// IsNoReroute reports whether err is a query-level error (wrapped by
// NoReroute somewhere in its chain): every replica would fail identically,
// so the caller should fail the query rather than degrade to partial
// results.
func IsNoReroute(err error) bool { return err != nil && !rerouteable(err) }

// DispatchResult is one partition's outcome.
type DispatchResult struct {
	// Part is the partition this result covers.
	Part pipeline.Partition
	// Shard is the shard that produced Value (or, when every route failed,
	// the partition's preferred shard — the original fault).
	Shard int
	// Reroutes is how many other shards were tried before Shard.
	Reroutes int
	// Value is the ShardFunc result (nil when Err is set).
	Value any
	// Err is the partition's terminal error after every route failed.
	Err error
	// Latency is the wall time of the successful attempt (or of the whole
	// failed route sequence).
	Latency time.Duration
	// Hedged reports a hedge launched for this partition; HedgeWon reports
	// the hedge attempt's result was the one used.
	Hedged   bool
	HedgeWon bool
}

// GateOutcome classifies how an acquired dispatch attempt ended, feeding
// the gate's passive health signals.
type GateOutcome int

const (
	// GateAbandoned: the attempt never meaningfully ran (saturated shard,
	// caller cancellation, reaped hedge loser) — no health signal.
	GateAbandoned GateOutcome = iota
	// GateSuccess: the shard answered correctly.
	GateSuccess
	// GateFailure: the shard failed the attempt.
	GateFailure
)

// ShardGate vetoes dispatch to unhealthy shards and meters controlled
// rejoin traffic. Acquire reports whether shard may take one sub-query now
// (false for quarantined shards, or rejoining shards at their trickle
// limit); a true return must be paired with exactly one Release carrying
// the attempt's outcome.
type ShardGate interface {
	Acquire(shard int) bool
	Release(shard int, outcome GateOutcome, latency time.Duration)
}

// DispatcherConfig tunes a shard dispatcher.
type DispatcherConfig struct {
	// Shards is the replica count (required, >= 1).
	Shards int
	// Gate, when set, vetoes dispatch per shard (health state machine:
	// quarantined shards refuse, rejoining shards trickle) and receives
	// passive success/failure/latency signals from every attempt.
	Gate ShardGate
	// Hedge, when set (with Delay and Budget), enables tail-latency
	// hedging for hop-0 attempts.
	Hedge *HedgePolicy
}

// Dispatcher scatters partitions across shard replicas with
// reroute-on-failure.
type Dispatcher struct {
	cfg DispatcherConfig
}

// NewDispatcher builds a dispatcher over cfg.Shards replicas.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("exec: dispatcher needs at least one shard, got %d", cfg.Shards)
	}
	return &Dispatcher{cfg: cfg}, nil
}

// Shards returns the replica count.
func (d *Dispatcher) Shards() int { return d.cfg.Shards }

// gateAcquire consults the configured gate (nil gate admits everything).
func (d *Dispatcher) gateAcquire(shard int) bool {
	if d.cfg.Gate == nil {
		return true
	}
	return d.cfg.Gate.Acquire(shard)
}

// gateRelease pairs a successful gateAcquire with its outcome.
func (d *Dispatcher) gateRelease(shard int, outcome GateOutcome, latency time.Duration) {
	if d.cfg.Gate != nil {
		d.cfg.Gate.Release(shard, outcome, latency)
	}
}

// Scatter runs do once per partition, concurrently, and returns one
// DispatchResult per partition in input order. Partition k prefers shard
// k mod Shards; a failure or a gate refusal routes it onward through the
// remaining replicas, each tried at most once. Scatter never
// fabricates data: a partition with no surviving route carries Err.
func (d *Dispatcher) Scatter(ctx context.Context, parts []pipeline.Partition, do ShardFunc) []DispatchResult {
	out := make([]DispatchResult, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part pipeline.Partition) {
			defer wg.Done()
			out[i] = d.route(ctx, part, do)
		}(i, part)
	}
	wg.Wait()
	return out
}

// route tries one partition on its preferred shard and reroutes on failure.
func (d *Dispatcher) route(ctx context.Context, part pipeline.Partition, do ShardFunc) DispatchResult {
	n := d.cfg.Shards
	preferred := part.Index % n
	res := DispatchResult{Part: part, Shard: preferred}
	start := time.Now()
	if d.cfg.Hedge != nil {
		d.cfg.Hedge.Budget.earn()
	}

	var errs []error
	attempted := false
	for hop := 0; hop < n; hop++ {
		shard := (preferred + hop) % n
		if cerr := ctx.Err(); cerr != nil {
			res.Err = cerr
			res.Latency = time.Since(start)
			return res
		}
		if !d.gateAcquire(shard) {
			errs = append(errs, fmt.Errorf("shard %d: refused by the health gate", shard))
			continue
		}
		attempted = true
		attemptStart := time.Now()
		// Either attempt kind settles the gate for every shard it touches.
		var hr hedgeOutcome
		if hop == 0 && d.hedging() {
			hr = d.hedgedAttempt(ctx, shard, part, do)
		} else {
			hr = d.soloAttempt(ctx, shard, part, do)
		}
		res.Hedged = res.Hedged || hr.hedged
		if hr.err == nil {
			res.Shard = hr.shard
			res.Value = hr.value
			res.HedgeWon = hr.hedgeWon
			res.Latency = time.Since(attemptStart) // successful attempt only
			return res
		}
		if !rerouteable(hr.err) {
			// The query itself is bad; the shard answered correctly.
			res.Shard = hr.shard
			res.Err = hr.err
			res.Latency = time.Since(start)
			return res
		}
		if ctx.Err() != nil {
			// The caller's budget expired mid-call; don't blame the shard.
			res.Shard = shard
			res.Err = ctx.Err()
			res.Latency = time.Since(start)
			return res
		}
		res.Reroutes++
		errs = append(errs, hr.attemptErrs...)
		res.Shard = shard
	}
	if !attempted {
		errs = append(errs, ErrAllShardsRefused)
	}
	res.Err = &RouteError{Preferred: preferred, Attempts: errs}
	// Name the original fault — the preferred shard — not the last reroute
	// target the partition happened to die on.
	res.Shard = preferred
	res.Latency = time.Since(start)
	return res
}

// RouteError is a partition's terminal error after every route was
// exhausted. Its message and cause lead with the PREFERRED shard's own
// failure — the original fault — rather than the last reroute target, and
// Unwrap exposes every per-shard attempt error so errors.Is/As keep
// working across the whole chain.
type RouteError struct {
	// Preferred is the partition's home shard (part.Index % shards).
	Preferred int
	// Attempts holds each route's failure in attempt order: the preferred
	// shard's error first, reroute targets after it.
	Attempts []error
}

// Error implements error, leading with the original (preferred-shard)
// failure.
func (e *RouteError) Error() string {
	if len(e.Attempts) == 0 {
		return fmt.Sprintf("exec: shard %d: no route attempted", e.Preferred)
	}
	first := e.Attempts[0].Error()
	if len(e.Attempts) == 1 {
		return first
	}
	rest := make([]string, 0, len(e.Attempts)-1)
	for _, a := range e.Attempts[1:] {
		rest = append(rest, a.Error())
	}
	return fmt.Sprintf("%s (reroutes also failed: %s)", first, strings.Join(rest, "; "))
}

// Unwrap exposes every attempt error for errors.Is/As.
func (e *RouteError) Unwrap() []error { return e.Attempts }

// Cause returns the preferred shard's own failure (the first attempt).
func (e *RouteError) Cause() error {
	if len(e.Attempts) == 0 {
		return nil
	}
	return e.Attempts[0]
}

// PartialError is the typed "partial results" outcome: some partitions have
// no surviving route. Callers that cannot tolerate gaps fail the query;
// callers that can (the router's partial mode) return the surviving
// partitions with an explicit partial marker, never splicing in zeros.
type PartialError struct {
	// Missing lists the partition indices with no result, ascending.
	Missing []int
	// Errs maps each missing partition index to its terminal error.
	Errs map[int]error
}

// Error implements error.
func (p *PartialError) Error() string {
	parts := make([]string, 0, len(p.Missing))
	for _, k := range p.Missing {
		parts = append(parts, fmt.Sprintf("%d: %v", k, p.Errs[k]))
	}
	return fmt.Sprintf("exec: partial result, %d partition(s) missing [%s]",
		len(p.Missing), strings.Join(parts, "; "))
}

// Partial inspects a scatter outcome and returns the typed PartialError when
// any partition failed (nil when all succeeded).
func Partial(results []DispatchResult) *PartialError {
	var pe *PartialError
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if pe == nil {
			pe = &PartialError{Errs: make(map[int]error)}
		}
		pe.Missing = append(pe.Missing, r.Part.Index)
		pe.Errs[r.Part.Index] = r.Err
	}
	if pe != nil {
		sort.Ints(pe.Missing)
	}
	return pe
}
