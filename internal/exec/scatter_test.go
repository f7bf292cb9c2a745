package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"accelscore/internal/pipeline"
)

func parts(n int) []pipeline.Partition {
	out := make([]pipeline.Partition, n)
	for i := range out {
		out[i] = pipeline.Partition{Index: i, Count: n}
	}
	return out
}

func TestScatterHappyPath(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	results := d.Scatter(context.Background(), parts(4),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			return fmt.Sprintf("s%d:p%d", shard, part.Index), nil
		})
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("partition %d: %v", i, r.Err)
		}
		if r.Shard != i || r.Reroutes != 0 {
			t.Fatalf("partition %d ran on shard %d with %d reroutes", i, r.Shard, r.Reroutes)
		}
		if want := fmt.Sprintf("s%d:p%d", i, i); r.Value != want {
			t.Fatalf("partition %d value %v, want %s", i, r.Value, want)
		}
	}
	if pe := Partial(results); pe != nil {
		t.Fatalf("unexpected partial: %v", pe)
	}
}

// TestScatterReroutesDeadShard kills one shard and checks its partition
// lands, correct and exactly once, on a healthy replica.
func TestScatterReroutesDeadShard(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.Map
	results := d.Scatter(context.Background(), parts(3),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			calls.Store(fmt.Sprintf("%d->%d", part.Index, shard), true)
			if shard == 1 {
				return nil, errors.New("connection refused")
			}
			return shard, nil
		})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("partition %d failed despite healthy replicas: %v", r.Part.Index, r.Err)
		}
	}
	r1 := results[1]
	if r1.Shard == 1 {
		t.Fatal("partition 1 reported success on the dead shard")
	}
	if r1.Reroutes != 1 {
		t.Fatalf("partition 1 took %d reroutes, want 1", r1.Reroutes)
	}
}

// fakeGate is a ShardGate that refuses the shards marked in refuse and
// records every released outcome per shard.
type fakeGate struct {
	mu       sync.Mutex
	refuse   map[int]bool
	released map[int][]GateOutcome
}

func newFakeGate(refuse ...int) *fakeGate {
	g := &fakeGate{refuse: make(map[int]bool), released: make(map[int][]GateOutcome)}
	for _, s := range refuse {
		g.refuse[s] = true
	}
	return g
}

func (g *fakeGate) Acquire(shard int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.refuse[shard]
}

func (g *fakeGate) Release(shard int, outcome GateOutcome, _ time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.released[shard] = append(g.released[shard], outcome)
}

// saw reports whether shard's released outcomes are exactly want.
func (g *fakeGate) saw(shard int, want ...GateOutcome) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Equal(g.released[shard], want)
}

// TestScatterOpensBreakerAndSkipsShard: a dead shard's failures reach the
// gate (the health state machine that stops traffic to it), and once the
// gate refuses the shard, later scatters skip it without calling it and
// never release a slot they did not acquire.
func TestScatterOpensBreakerAndSkipsShard(t *testing.T) {
	gate := newFakeGate()
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	deadCalls := 0
	do := func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
		if shard == 0 {
			deadCalls++
			return nil, errors.New("boom")
		}
		return shard, nil
	}
	// Two scatters of partition 0 (preferred shard 0) reroute and charge
	// shard 0 with one failure each.
	for i := 0; i < 2; i++ {
		if rs := d.Scatter(context.Background(), parts(2)[:1], do); rs[0].Err != nil {
			t.Fatalf("scatter %d: %v", i, rs[0].Err)
		}
	}
	if !gate.saw(0, GateFailure, GateFailure) || !gate.saw(1, GateSuccess, GateSuccess) {
		t.Fatalf("released %v, want two failures on shard 0 and two successes on shard 1", gate.released)
	}
	gate.mu.Lock()
	gate.refuse[0] = true
	gate.mu.Unlock()
	callsBefore := deadCalls
	rs := d.Scatter(context.Background(), parts(2)[:1], do)
	if rs[0].Err != nil || rs[0].Shard != 1 {
		t.Fatalf("refused-shard scatter: shard=%d err=%v", rs[0].Shard, rs[0].Err)
	}
	if deadCalls != callsBefore || !gate.saw(0, GateFailure, GateFailure) {
		t.Fatalf("a refused shard was called or released (released %v)", gate.released)
	}
}

// TestScatterBusyShardIsNoHealthSignal: a saturated shard's ErrShardBusy
// refusal reroutes the partition but is released as GateAbandoned, so load
// alone never degrades a shard.
func TestScatterBusyShardIsNoHealthSignal(t *testing.T) {
	gate := newFakeGate()
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	rs := d.Scatter(context.Background(), parts(2)[:1],
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if shard == 0 {
				return nil, fmt.Errorf("shard 0: queue full: %w", ErrShardBusy)
			}
			return shard, nil
		})
	if rs[0].Err != nil || rs[0].Shard != 1 || !gate.saw(0, GateAbandoned) {
		t.Fatalf("busy shard 0: result %+v, released %v; want a reroute and one abandon", rs[0], gate.released)
	}
}

// TestScatterPartialWhenAllRoutesFail checks the typed partial outcome: no
// fabricated values, every missing partition listed with its error.
func TestScatterPartialWhenAllRoutesFail(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	results := d.Scatter(context.Background(), parts(2),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if part.Index == 1 {
				return nil, errors.New("disk on fire")
			}
			return "ok", nil
		})
	if results[0].Err != nil || results[0].Value != "ok" {
		t.Fatalf("partition 0: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Value != nil {
		t.Fatalf("partition 1 fabricated a value: %+v", results[1])
	}
	pe := Partial(results)
	if pe == nil {
		t.Fatal("no PartialError for a failed partition")
	}
	if len(pe.Missing) != 1 || pe.Missing[0] != 1 {
		t.Fatalf("missing = %v", pe.Missing)
	}
	if pe.Errs[1] == nil {
		t.Fatal("missing partition has no error")
	}
	var target *PartialError
	if !errors.As(error(pe), &target) {
		t.Fatal("PartialError not error-As-able")
	}
}

// TestScatterNoRerouteStopsImmediately checks query-level errors neither
// reroute nor charge the shard's health: the shard answered correctly, so
// its slot is released as GateSuccess, never GateFailure.
func TestScatterNoRerouteStopsImmediately(t *testing.T) {
	gate := newFakeGate()
	d, err := NewDispatcher(DispatcherConfig{Shards: 3, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	bad := errors.New("unknown model")
	results := d.Scatter(context.Background(), parts(3)[:1],
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			calls++
			return nil, NoReroute(bad)
		})
	if calls != 1 {
		t.Fatalf("query-level error was retried %d times", calls)
	}
	if !errors.Is(results[0].Err, bad) {
		t.Fatalf("err = %v", results[0].Err)
	}
	if !gate.saw(0, GateSuccess) {
		t.Fatalf("query-level error released %v, want one GateSuccess on shard 0", gate.released)
	}
}

// TestScatterAllBreakersOpen checks the explicit ErrAllShardsRefused
// outcome when the gate admits no replica: nothing is called.
func TestScatterAllBreakersOpen(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Gate: newFakeGate(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	results := d.Scatter(context.Background(), parts(2)[:1],
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			calls++
			return nil, errors.New("down")
		})
	if !errors.Is(results[0].Err, ErrAllShardsRefused) {
		t.Fatalf("err = %v, want ErrAllShardsRefused", results[0].Err)
	}
	if calls != 0 {
		t.Fatalf("%d calls to refused shards", calls)
	}
}
