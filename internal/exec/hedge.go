// Tail-latency hedging for the scatter path. When a partition's primary
// attempt outlives an adaptive trigger (the router derives it from the
// shard's recent latency distribution), the dispatcher launches the same
// sub-query on a healthy replica and takes the first finisher — but only
// within a strict hedge budget, so hedging can never amplify an overload
// into a request storm. Correctness bar: when both attempts complete, their
// results MUST be bit-identical; a divergent pair fails the whole query
// loudly (NoReroute) instead of silently picking one answer.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"accelscore/internal/pipeline"
)

// Hedge outcome labels, shared with the router's
// accelscore_router_hedges_total{outcome} metric.
const (
	// HedgeWin: the hedge attempt's result was used.
	HedgeWin = "win"
	// HedgeLoss: a hedge launched but the primary's result was used.
	HedgeLoss = "loss"
	// HedgeMismatch: primary and hedge both completed with divergent
	// results — the query fails loudly.
	HedgeMismatch = "mismatch"
	// HedgeDenied: the trigger fired but no hedge launched (budget
	// exhausted or no healthy replica).
	HedgeDenied = "denied"
)

// HedgeBudget rations hedge launches to a fraction of dispatched
// partitions: every routed partition earns `fraction` tokens (capped at
// `burst`), and each hedge spends one. Under a uniform load this converges
// to at most `fraction` hedges per sub-query, with `burst` allowing short
// clumps when a straggler stalls several partitions at once.
type HedgeBudget struct {
	mu       sync.Mutex
	fraction float64
	burst    float64
	tokens   float64
}

// NewHedgeBudget builds a budget allowing ~fraction hedges per dispatched
// partition (default 0.05, i.e. <=5% of requests) with the given burst
// depth (default/minimum 1). The bucket starts full.
func NewHedgeBudget(fraction float64, burst int) *HedgeBudget {
	if fraction <= 0 {
		fraction = 0.05
	}
	if fraction > 1 {
		fraction = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &HedgeBudget{fraction: fraction, burst: float64(burst), tokens: float64(burst)}
}

// earn credits one dispatched partition.
func (b *HedgeBudget) earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+b.fraction, b.burst)
	b.mu.Unlock()
}

// TrySpend consumes one hedge token, reporting false when the budget is
// exhausted.
func (b *HedgeBudget) TrySpend() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns an unspent token (hedge aborted before launch).
func (b *HedgeBudget) refund() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+1, b.burst)
	b.mu.Unlock()
}

// HedgePolicy turns on tail-latency hedging for hop-0 (preferred shard)
// attempts. All fields except OnOutcome and Healthy are required for the
// policy to engage.
type HedgePolicy struct {
	// Delay returns the adaptive hedge trigger for a sub-query whose
	// primary runs on shard; <= 0 disables hedging for that attempt
	// (e.g. not enough latency samples yet).
	Delay func(shard int) time.Duration
	// Budget rations hedge launches (required).
	Budget *HedgeBudget
	// Healthy filters hedge targets: only shards it accepts may serve a
	// hedge (nil accepts all). Routers exclude degraded and rejoining
	// shards here — a hedge to a sick replica is worse than waiting.
	Healthy func(shard int) bool
	// Compare checks a primary/hedge pair that BOTH completed for
	// bit-identical equality. A non-nil error fails the partition loudly
	// (wrapped NoReroute): divergent replicas are a correctness event,
	// not a routing event.
	Compare func(primary, hedge any) error
	// OnOutcome observes hedge lifecycle events (HedgeWin/Loss/Mismatch/
	// Denied) for metrics.
	OnOutcome func(outcome string)
}

func (hp *HedgePolicy) note(outcome string) {
	if hp != nil && hp.OnOutcome != nil {
		hp.OnOutcome(outcome)
	}
}

// hedgeCtxKey marks a context as belonging to a hedge attempt.
type hedgeCtxKey struct{}

// markHedge tags an attempt context as a hedge.
func markHedge(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgeCtxKey{}, true)
}

// IsHedgeAttempt reports whether ctx belongs to a hedge attempt launched by
// the dispatcher — ShardFuncs use it to label hedge spans in traces.
func IsHedgeAttempt(ctx context.Context) bool {
	v, _ := ctx.Value(hedgeCtxKey{}).(bool)
	return v
}

// hedging reports whether hop-0 hedging can engage at all.
func (d *Dispatcher) hedging() bool {
	hp := d.cfg.Hedge
	return hp != nil && hp.Delay != nil && hp.Budget != nil && d.cfg.Shards > 1
}

// attempt is one shard call's outcome inside a hedged race.
type attempt struct {
	shard int
	v     any
	err   error
	lat   time.Duration
}

// hedgeOutcome is one hop's resolution (hedged or not). All gate
// accounting for the attempts it ran has already been applied.
type hedgeOutcome struct {
	value       any
	shard       int
	err         error
	attemptErrs []error // per-shard labeled errors when err is rerouteable
	hedged      bool
	hedgeWon    bool
}

// settleAttempt releases one completed attempt's gate slot with its
// outcome. canceledByUs marks a hedge-race loser we reaped: its failure is
// nobody's fault.
func (d *Dispatcher) settleAttempt(ctx context.Context, a attempt, canceledByUs bool) {
	switch {
	case a.err == nil, !rerouteable(a.err):
		// A query-level (NoReroute) error means the shard answered
		// correctly; only the query was bad.
		d.gateRelease(a.shard, GateSuccess, a.lat)
	case canceledByUs, ctx.Err() != nil, errors.Is(a.err, ErrShardBusy):
		d.gateRelease(a.shard, GateAbandoned, a.lat)
	default:
		d.gateRelease(a.shard, GateFailure, a.lat)
	}
}

// settleSolo settles a lone attempt and resolves its hop with it.
func (d *Dispatcher) settleSolo(ctx context.Context, a attempt) hedgeOutcome {
	d.settleAttempt(ctx, a, false)
	out := hedgeOutcome{value: a.v, shard: a.shard, err: a.err}
	if a.err != nil && rerouteable(a.err) {
		out.attemptErrs = []error{fmt.Errorf("shard %d: %w", a.shard, a.err)}
	}
	return out
}

// soloAttempt runs one unhedged attempt on shard, whose gate slot the
// caller holds, and settles it.
func (d *Dispatcher) soloAttempt(ctx context.Context, shard int, part pipeline.Partition, do ShardFunc) hedgeOutcome {
	start := time.Now()
	v, err := do(ctx, shard, part)
	return d.settleSolo(ctx, attempt{shard: shard, v: v, err: err, lat: time.Since(start)})
}

// hedgeTarget picks the hedge replica for primary: the next shard accepted
// by the policy's Healthy filter and admitted by the gate. On success the
// target's gate slot is already held.
func (d *Dispatcher) hedgeTarget(primary int) int {
	hp := d.cfg.Hedge
	n := d.cfg.Shards
	for hop := 1; hop < n; hop++ {
		shard := (primary + hop) % n
		if hp.Healthy != nil && !hp.Healthy(shard) {
			continue
		}
		if d.gateAcquire(shard) {
			return shard
		}
	}
	return -1
}

// hedgedAttempt runs the hop-0 attempt with tail-latency hedging. The
// caller holds primary's gate slot; this function settles every shard it
// touches before returning.
func (d *Dispatcher) hedgedAttempt(ctx context.Context, primary int, part pipeline.Partition, do ShardFunc) hedgeOutcome {
	hp := d.cfg.Hedge
	delay := hp.Delay(primary)
	if delay <= 0 {
		return d.soloAttempt(ctx, primary, part, do)
	}

	ch := make(chan attempt, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	run := func(actx context.Context, shard int) {
		start := time.Now()
		v, err := do(actx, shard, part)
		ch <- attempt{shard: shard, v: v, err: err, lat: time.Since(start)}
	}
	go run(pctx, primary)

	timer := time.NewTimer(delay)
	select {
	case a := <-ch:
		timer.Stop()
		return d.settleSolo(ctx, a)
	case <-timer.C:
	}

	// The primary outlived its adaptive trigger: launch a hedge if the
	// budget and a healthy replica allow it.
	hedgeShard := -1
	if hp.Budget.TrySpend() {
		if hedgeShard = d.hedgeTarget(primary); hedgeShard < 0 {
			hp.Budget.refund()
		}
	}
	if hedgeShard < 0 {
		hp.note(HedgeDenied)
		return d.settleSolo(ctx, <-ch)
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go run(markHedge(hctx), hedgeShard)

	first := <-ch
	firstIsPrimary := first.shard == primary
	// When the first finisher carries a usable answer (success or a
	// query-level error), reap the loser; when it failed, the partner is
	// the remaining hope, so let it run. Either way we WAIT for the
	// partner: do() honors cancellation so this is prompt, and it
	// guarantees a completed pair is always compared for divergence.
	canceledLoser := false
	if first.err == nil || !rerouteable(first.err) {
		canceledLoser = true
		if firstIsPrimary {
			hcancel()
		} else {
			pcancel()
		}
	}
	second := <-ch

	pa, ha := first, second
	if !firstIsPrimary {
		pa, ha = second, first
	}
	d.settleAttempt(ctx, first, false)
	d.settleAttempt(ctx, second, canceledLoser)

	out := hedgeOutcome{hedged: true}
	pOK, hOK := pa.err == nil, ha.err == nil
	switch {
	case pOK && hOK:
		if hp.Compare != nil {
			if cmpErr := hp.Compare(pa.v, ha.v); cmpErr != nil {
				hp.note(HedgeMismatch)
				out.shard = primary
				out.err = NoReroute(fmt.Errorf(
					"exec: hedge disagreement on partition %s: shard %d and shard %d returned divergent results: %w",
					part, primary, hedgeShard, cmpErr))
				return out
			}
		}
		// Bit-identical pair: take the first finisher.
		out.value, out.shard = first.v, first.shard
		out.hedgeWon = !firstIsPrimary
		if out.hedgeWon {
			hp.note(HedgeWin)
		} else {
			hp.note(HedgeLoss)
		}
	case pOK:
		out.value, out.shard = pa.v, primary
		hp.note(HedgeLoss)
	case hOK:
		out.value, out.shard, out.hedgeWon = ha.v, hedgeShard, true
		hp.note(HedgeWin)
	default:
		hp.note(HedgeLoss)
		// Query-level errors dominate: the shard answered, the query is bad.
		if !rerouteable(pa.err) {
			out.shard = primary
			out.err = pa.err
			return out
		}
		if !rerouteable(ha.err) {
			out.shard = hedgeShard
			out.err = ha.err
			return out
		}
		out.shard = primary
		out.err = pa.err
		out.attemptErrs = []error{
			fmt.Errorf("shard %d: %w", primary, pa.err),
			fmt.Errorf("shard %d (hedge): %w", hedgeShard, ha.err),
		}
	}
	return out
}
