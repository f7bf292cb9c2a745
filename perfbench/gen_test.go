package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"accelscore/internal/dataset"
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	d := dataset.Higgs(2000+insertBatch*ingestInserts(2000), dataSeed)
	pool := &dataset.Dataset{FeatureNames: d.FeatureNames, X: d.X[2000*28:]}
	return newFixture(higgsTable, d, 2000, pool)
}

// streamBytes renders an op stream exactly as the system receives it, with
// its schedule.
func streamBytes(ops []Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, "%d|%s|%s\n", op.Due, op.Tenant, op.SQL)
	}
	return b.Bytes()
}

type genCase struct {
	name string
	gen  func(seed uint64, n int, window time.Duration, fx *fixture) []Op
}

var genCases = []genCase{
	{"warm_point", genWarmPoint},
	{"bulk_scan", func(seed uint64, _ int, _ time.Duration, fx *fixture) []Op { return genBulkScan(seed, fx) }},
	{"ingest_mix", genIngestMix},
	{"sharded_tier", genShardedTier},
}

func TestSameSeedSameStream(t *testing.T) {
	fx := testFixture(t)
	for _, c := range genCases {
		a := streamBytes(c.gen(7, 400, 10*time.Second, fx))
		b := streamBytes(c.gen(7, 400, 10*time.Second, fx))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", c.name)
		}
		other := streamBytes(c.gen(8, 400, 10*time.Second, fx))
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", c.name)
		}
	}
}

// shares counts each op class's share of the stream.
func shares(ops []Op, class func(Op) string) map[string]float64 {
	out := map[string]float64{}
	for _, op := range ops {
		out[class(op)] += 1 / float64(len(ops))
	}
	return out
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.4f", what, got, want, tol)
	}
}

// checkLimits checks @limit stays in [lo, hi] and is log-uniform: the
// geometric midpoint splits the sample in half, and so do the quartiles.
func checkLimits(t *testing.T, name string, ops []Op, lo, hi int) {
	t.Helper()
	var logs []float64
	for _, op := range ops {
		if op.Limit == 0 {
			continue
		}
		if op.Limit < lo || op.Limit > hi {
			t.Fatalf("%s: @limit %d outside [%d, %d]", name, op.Limit, lo, hi)
		}
		logs = append(logs, (math.Log(float64(op.Limit))-math.Log(float64(lo)))/(math.Log(float64(hi))-math.Log(float64(lo))))
	}
	sort.Float64s(logs)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		within(t, fmt.Sprintf("%s: log-scaled @limit quantile %.2f", name, q), logs[int(q*float64(len(logs)))], q, 0.03)
	}
}

func TestOpMixAndLimits(t *testing.T) {
	fx := testFixture(t)
	window := 10 * time.Second
	const n = 2000

	warm := genWarmPoint(3, n, window, fx)
	s := shares(warm, func(op Op) string { return op.Kind.String() })
	within(t, "warm_point EXEC share", s["score"], 0.8, 0.01)
	within(t, "warm_point GROUP BY share", s["group"], 0.2, 0.01)
	for _, m := range []string{"m16", "m64", "m128"} {
		within(t, "warm_point "+m+" share", shares(warm, func(op Op) string { return op.Model })[m], 1.0/3, 0.01)
	}
	checkLimits(t, "warm_point", warm, 16, 1024)

	ingest := genIngestMix(3, n, window, fx)
	s = shares(ingest, func(op Op) string {
		if op.Kind == opGroup && op.Limit == 0 {
			return "aggregate"
		}
		return op.Kind.String()
	})
	within(t, "ingest_mix read share", s["score"]+s["group"], 0.65, 0.01)
	within(t, "ingest_mix aggregate share", s["aggregate"], 0.05, 0.01)
	within(t, "ingest_mix INSERT share", s["insert"], 0.3, 0.01)
	batch := 0
	for _, op := range ingest {
		if op.Kind == opInsert {
			if op.Batch != batch {
				t.Fatalf("INSERT batch %d is due where batch %d should be", op.Batch, batch)
			}
			batch++
		}
	}
	if batch > ingestInserts(n) {
		t.Errorf("stream holds %d INSERT batches, more than the %d ingestInserts allows", batch, ingestInserts(n))
	}

	sharded := genShardedTier(3, n, window, fx)
	s = shares(sharded, func(op Op) string {
		switch {
		case op.Tenant != "":
			return "tenant"
		case op.Kind == opGroup:
			return "aggregate"
		}
		return "scatter"
	})
	within(t, "sharded_tier scatter share", s["scatter"], 0.65, 0.01)
	within(t, "sharded_tier tenant share", s["tenant"], 0.2, 0.01)
	within(t, "sharded_tier aggregate share", s["aggregate"], 0.15, 0.01)
	checkLimits(t, "sharded_tier", sharded, 256, 16384)

	for _, ops := range [][]Op{warm, ingest, sharded} {
		if len(ops) != n || !sort.SliceIsSorted(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due }) {
			t.Fatal("stream is not n ops in due order")
		}
		if last := ops[len(ops)-1].Due; last >= window || last < window*9/10 {
			t.Errorf("last op due at %v, want near the end of the %v window", last, window)
		}
	}
}

func TestBulkScanSelectivity(t *testing.T) {
	fx := testFixture(t)
	d := dataset.Higgs(2000, dataSeed)
	want := []float64{0.01, 0.25, 0.25}
	var got []float64
	for _, op := range genBulkScan(5, fx) {
		if op.Kind != opFilter {
			continue
		}
		pass := 0
		for i := 0; i < d.NumRecords(); i++ {
			if float64(d.X[i*28+op.Where.Feature]) > op.Where.Value {
				pass++
			}
		}
		got = append(got, float64(pass)/float64(d.NumRecords()))
	}
	sort.Float64s(got)
	if len(got) != len(want) {
		t.Fatalf("bulk_scan cycle has %d filtered scans, want %d", len(got), len(want))
	}
	for i := range want {
		within(t, "bulk_scan filter selectivity", got[i], want[i], 0.002)
	}
}
