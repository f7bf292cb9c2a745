package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/pipeline"
)

// hedgePolicy builds a test policy with a fixed trigger delay and a
// recording outcome sink.
func hedgePolicy(delay time.Duration, budget *HedgeBudget) (*HedgePolicy, *outcomeLog) {
	log := &outcomeLog{}
	return &HedgePolicy{
		Delay:  func(int) time.Duration { return delay },
		Budget: budget,
		Compare: func(primary, hedge any) error {
			if primary != hedge {
				return fmt.Errorf("%v vs %v", primary, hedge)
			}
			return nil
		},
		OnOutcome: log.note,
	}, log
}

type outcomeLog struct {
	mu  sync.Mutex
	out []string
}

func (l *outcomeLog) note(o string) {
	l.mu.Lock()
	l.out = append(l.out, o)
	l.mu.Unlock()
}

func (l *outcomeLog) count(o string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.out {
		if v == o {
			n++
		}
	}
	return n
}

// TestHedgeWinBitIdentical stalls the primary so the hedge fires, answers
// identically from the replica, and checks the merged outcome: hedge won,
// value intact, no error.
func TestHedgeWinBitIdentical(t *testing.T) {
	hp, log := hedgePolicy(5*time.Millisecond, NewHedgeBudget(1, 4))
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	results := d.Scatter(context.Background(), parts(1),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if shard == 0 { // primary stalls past the trigger
				select {
				case <-time.After(500 * time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return "answer", nil
		})
	r := results[0]
	if r.Err != nil {
		t.Fatalf("hedged partition failed: %v", r.Err)
	}
	if r.Value != "answer" || r.Shard != 1 {
		t.Fatalf("got value %v from shard %d, want answer from shard 1", r.Value, r.Shard)
	}
	if !r.Hedged || !r.HedgeWon {
		t.Fatalf("Hedged=%v HedgeWon=%v, want both true", r.Hedged, r.HedgeWon)
	}
	if log.count(HedgeWin) != 1 {
		t.Fatalf("outcomes %v, want one win", log.out)
	}
}

// TestHedgeMismatchFailsLoudly makes the primary ignore cancellation and
// return a DIFFERENT answer than the hedge: the completed pair must be
// compared and the divergence must fail the query loudly (NoReroute), never
// silently pick one side.
func TestHedgeMismatchFailsLoudly(t *testing.T) {
	hp, log := hedgePolicy(5*time.Millisecond, NewHedgeBudget(1, 4))
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	results := d.Scatter(context.Background(), parts(1),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if shard == 0 {
				// Outlive the trigger, ignore the cancel, answer divergently.
				time.Sleep(25 * time.Millisecond)
				return "primary-answer", nil
			}
			return "hedge-answer", nil
		})
	r := results[0]
	if r.Err == nil {
		t.Fatalf("divergent hedge pair returned value %v, want loud failure", r.Value)
	}
	if !IsNoReroute(r.Err) {
		t.Fatalf("mismatch error should be NoReroute, got %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "divergent") {
		t.Fatalf("mismatch error %q should name the divergence", r.Err)
	}
	if log.count(HedgeMismatch) != 1 {
		t.Fatalf("outcomes %v, want one mismatch", log.out)
	}
}

// TestHedgeBudgetExhaustion drains the budget and checks further triggers
// are denied: the primary's answer is awaited instead, and no hedge call
// reaches another shard.
func TestHedgeBudgetExhaustion(t *testing.T) {
	budget := NewHedgeBudget(0.001, 1) // one token, near-zero earn rate
	if !budget.TrySpend() {
		t.Fatal("budget should start with its burst available")
	}
	hp, log := hedgePolicy(time.Millisecond, budget)
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	var hedgeCalls sync.Map
	results := d.Scatter(context.Background(), parts(1),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if IsHedgeAttempt(ctx) {
				hedgeCalls.Store(shard, true)
			}
			time.Sleep(10 * time.Millisecond) // outlive the trigger
			return "answer", nil
		})
	r := results[0]
	if r.Err != nil || r.Value != "answer" || r.Shard != 0 {
		t.Fatalf("got %v from shard %d (err %v), want primary answer", r.Value, r.Shard, r.Err)
	}
	if r.HedgeWon {
		t.Fatal("no hedge launched, so none can win")
	}
	if log.count(HedgeDenied) != 1 {
		t.Fatalf("outcomes %v, want one denied", log.out)
	}
	n := 0
	hedgeCalls.Range(func(_, _ any) bool { n++; return true })
	if n != 0 {
		t.Fatalf("%d hedge calls reached shards with an empty budget", n)
	}
}

// TestHedgeBudgetEarnRate checks the token bucket's arithmetic: fraction f
// per earn, capped at burst, one token per spend.
func TestHedgeBudgetEarnRate(t *testing.T) {
	b := NewHedgeBudget(0.5, 2)
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("burst of 2 should allow two immediate spends")
	}
	if b.TrySpend() {
		t.Fatal("third spend should fail on an empty bucket")
	}
	b.earn() // 0.5
	if b.TrySpend() {
		t.Fatal("half a token must not allow a spend")
	}
	b.earn() // 1.0
	if !b.TrySpend() {
		t.Fatal("two earns at fraction 0.5 should fund one hedge")
	}
}

// TestHedgeSkipsUnhealthyTarget marks every replica unhealthy: the trigger
// fires, no target is found, the token is refunded, and the primary serves.
func TestHedgeSkipsUnhealthyTarget(t *testing.T) {
	budget := NewHedgeBudget(1, 1)
	hp, log := hedgePolicy(time.Millisecond, budget)
	hp.Healthy = func(shard int) bool { return shard == 0 }
	d, err := NewDispatcher(DispatcherConfig{Shards: 3, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	results := d.Scatter(context.Background(), parts(1),
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if shard != 0 {
				t.Errorf("hedge reached unhealthy shard %d", shard)
			}
			time.Sleep(10 * time.Millisecond)
			return "answer", nil
		})
	if results[0].Err != nil || results[0].Value != "answer" {
		t.Fatalf("primary should have served: %+v", results[0])
	}
	if log.count(HedgeDenied) != 1 {
		t.Fatalf("outcomes %v, want one denied", log.out)
	}
	if !budget.TrySpend() {
		t.Fatal("aborted hedge should have refunded its token")
	}
}

// TestRouteErrorLeadsWithPreferredShard exhausts every route and checks the
// terminal error names the preferred shard's own failure first, keeps every
// attempt reachable via errors.Is, and reports the preferred shard in the
// result.
func TestRouteErrorLeadsWithPreferredShard(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	preferredErr := errors.New("disk on fire")
	results := d.Scatter(context.Background(), parts(3)[1:2], // partition 1 only
		func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
			if shard == 1 {
				return nil, preferredErr
			}
			return nil, fmt.Errorf("shard %d flaky", shard)
		})
	r := results[0]
	if r.Err == nil {
		t.Fatal("want terminal error")
	}
	var re *RouteError
	if !errors.As(r.Err, &re) {
		t.Fatalf("want *RouteError, got %T: %v", r.Err, r.Err)
	}
	if re.Preferred != 1 || r.Shard != 1 {
		t.Fatalf("preferred %d, result shard %d, want 1", re.Preferred, r.Shard)
	}
	if !errors.Is(re.Cause(), preferredErr) {
		t.Fatalf("cause %v should be the preferred shard's own failure", re.Cause())
	}
	if !strings.HasPrefix(r.Err.Error(), "shard 1: disk on fire") {
		t.Fatalf("message %q should lead with the preferred shard's failure", r.Err)
	}
	if !errors.Is(r.Err, preferredErr) {
		t.Fatal("errors.Is must reach the preferred shard's error through Unwrap")
	}
	if !strings.Contains(r.Err.Error(), "reroutes also failed") {
		t.Fatalf("message %q should list the reroute failures", r.Err)
	}
}

// TestRouteErrorAllBreakersOpen preserves the ErrAllShardsRefused contract
// through the RouteError wrapper when the gate refuses every shard.
func TestRouteErrorAllBreakersOpen(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{Shards: 2, Gate: newFakeGate(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fail := func(ctx context.Context, shard int, part pipeline.Partition) (any, error) {
		return nil, errors.New("down")
	}
	results := d.Scatter(context.Background(), parts(2), fail)
	for _, r := range results {
		var re *RouteError
		if !errors.As(r.Err, &re) || !errors.Is(r.Err, ErrAllShardsRefused) {
			t.Fatalf("want ErrAllShardsRefused via RouteError, got %v", r.Err)
		}
	}
}
