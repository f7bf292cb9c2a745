package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/xrand"
)

// opKind is the shape of one generated statement.
type opKind uint8

const (
	// opScore is EXEC sp_score_model, over the first @limit rows or, with
	// no limit, the whole table.
	opScore opKind = iota
	// opGroup is SELECT prediction, COUNT(*) FROM PREDICT(...) [WHERE ...]
	// GROUP BY prediction, over the first @limit rows or the whole table.
	opGroup
	// opFilter is SELECT prediction FROM PREDICT(...) WHERE ...: a filtered
	// full-table scan.
	opFilter
	// opInsert is one INSERT of insertBatch rows through Database.Query.
	opInsert
)

func (k opKind) String() string {
	return [...]string{"score", "group", "filter", "insert"}[k]
}

// insertBatch is the row count of every generated INSERT.
const insertBatch = 16

// cond is a pushed-down filter "column > value".
type cond struct {
	Feature int
	Column  string
	Value   float64
}

// Op is one generated statement and when it is due.
type Op struct {
	// Due is the op's offset from the start of the measured window (open
	// loop); closed-loop ops ignore it.
	Due     time.Duration
	Kind    opKind
	Model   string
	Backend string
	// Limit is the @limit (0 = the whole table).
	Limit int
	Where *cond
	// Tenant routes the query to one shard (sharded_tier only).
	Tenant string
	// Batch numbers an INSERT; it writes pool rows
	// [Batch*insertBatch, (Batch+1)*insertBatch).
	Batch int
	SQL   string
}

// scoring reports whether the op scores rows (everything but INSERT).
func (o Op) scoring() bool { return o.Kind != opInsert }

// fixture is the benchmark's own view of a workload's data: the generator
// needs column names and value quantiles to write filters with a known
// selectivity, and the rows INSERTs will add.
type fixture struct {
	table    string
	features []string
	// sorted holds each filter column's values in ascending order.
	sorted map[int][]float32
	// pool holds the rows INSERTs append, in order.
	pool *dataset.Dataset
}

// filterFeatures are the HIGGS high-level features (m_jj ... m_wwbb);
// filters use them because their distributions are continuous.
var filterFeatures = []int{21, 22, 23, 24, 25, 26, 27}

// newFixture indexes the first rows of d, the table as loaded.
func newFixture(table string, d *dataset.Dataset, rows int, pool *dataset.Dataset) *fixture {
	fx := &fixture{table: table, features: d.FeatureNames, sorted: map[int][]float32{}, pool: pool}
	nf := d.NumFeatures()
	for _, f := range filterFeatures {
		if f >= nf {
			continue
		}
		col := make([]float32, rows)
		for i := range col {
			col[i] = d.X[i*nf+f]
		}
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		fx.sorted[f] = col
	}
	return fx
}

// above returns the filter "feature > v" that about 1-q of the rows pass.
func (fx *fixture) above(feature int, q float64) *cond {
	col := fx.sorted[feature]
	i := min(max(int(math.Ceil(q*float64(len(col))))-1, 0), len(col)-1)
	return &cond{Feature: feature, Column: fx.features[feature], Value: float64(col[i])}
}

// filterColumns returns the filter features the fixture can serve.
func (fx *fixture) filterColumns() []int {
	var out []int
	for _, f := range filterFeatures {
		if _, ok := fx.sorted[f]; ok {
			out = append(out, f)
		}
	}
	return out
}

// arrivals returns n arrival offsets in [0, window), sorted: a Poisson
// process conditioned on its count, so every seed offers exactly n ops in
// the window while gaps stay exponential.
func arrivals(rng *xrand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mixBlock is the stratum of deck: every mixBlock consecutive labels hold
// the mix in exact proportion.
const mixBlock = 20

// deck returns n labels in [0, len(shares)) in proportion to shares (see
// split), shuffled within each block of mixBlock consecutive labels. An exact mix keeps per-run metrics from drifting with the seed,
// and the blocks keep heavy statements from clustering by chance.
func deck(rng *xrand.Rand, n int, shares []float64) []int {
	out := make([]int, 0, n)
	for lo := 0; lo < n; lo += mixBlock {
		block := len(out)
		for i, c := range split(rng, min(mixBlock, n-lo), shares) {
			for ; c > 0; c-- {
				out = append(out, i)
			}
		}
		b := out[block:]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return out
}

// split divides n in proportion to shares: each share gets the floor of
// its exact part, and the units left over go to shares drawn with
// probability proportional to their remainders, so no share is favoured
// block after block.
func split(rng *xrand.Rand, n int, shares []float64) []int {
	var total float64
	for _, s := range shares {
		total += s
	}
	counts := make([]int, len(shares))
	rems := make([]float64, len(shares))
	given := 0
	var remSum float64
	for i, s := range shares {
		exact := s / total * float64(n)
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		given += counts[i]
		remSum += rems[i]
	}
	for ; given < n; given++ {
		u := rng.Float64() * remSum
		pick := len(rems) - 1
		for i, r := range rems {
			if u < r {
				pick = i
				break
			}
			u -= r
		}
		counts[pick]++
		remSum -= rems[pick]
		rems[pick] = 0
	}
	return counts
}

// even is a deck of n labels spread evenly over k values.
func even(rng *xrand.Rand, n, k int) []int {
	shares := make([]float64, k)
	for i := range shares {
		shares[i] = 1
	}
	return deck(rng, n, shares)
}

// logUniform returns n integers log-uniform in [lo, hi], stratified (one
// draw per 1/n quantile band, shuffled) so each run's sample matches the
// distribution closely.
func logUniform(rng *xrand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	a, b := math.Log(float64(lo)), math.Log(float64(hi)+1)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		out[i] = min(int(math.Exp(a+u*(b-a))), hi)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// scoreBackends are the engines point queries ask for; "auto" goes through
// the offload advisor.
var scoreBackends = []string{"CPU_SKLearn", "CPU_ONNX", "auto"}

// pointReads fills ops (already timed) with warm_point-style reads: about
// 80% EXEC with a log-uniform @limit in [lo, hi], about 20% filtered
// GROUP BY over the same limits.
func pointReads(rng *xrand.Rand, ops []Op, fx *fixture, models []string, lo, hi int) {
	n := len(ops)
	kinds := deck(rng, n, []float64{0.8, 0.2})
	ms := even(rng, n, len(models))
	bs := even(rng, n, len(scoreBackends))
	limits := logUniform(rng, n, lo, hi)
	cols := fx.filterColumns()
	for i := range ops {
		op := &ops[i]
		op.Model, op.Backend, op.Limit = models[ms[i]], scoreBackends[bs[i]], limits[i]
		op.Kind = opScore
		if kinds[i] == 1 {
			op.Kind = opGroup
			f := cols[rng.Intn(len(cols))]
			op.Where = fx.above(f, []float64{0.25, 0.5, 0.75}[rng.Intn(3)])
		}
	}
}

// timed returns n ops with due times spread over the window.
func timed(rng *xrand.Rand, n int, window time.Duration) []Op {
	ops := make([]Op, n)
	for i, d := range arrivals(rng, n, window) {
		ops[i].Due = d
	}
	return ops
}

// genWarmPoint is the warm_point stream: n point reads over three models.
func genWarmPoint(seed uint64, n int, window time.Duration, fx *fixture) []Op {
	rng := xrand.New(seed)
	ops := timed(rng, n, window)
	pointReads(rng, ops, fx, []string{"m16", "m64", "m128"}, 16, 1024)
	return render(ops, fx)
}

// genBulkScan is bulk_scan's cycle of full-table statements, started at a
// seed-chosen phase, with the filter column drawn from the seed. The
// closed-loop client repeats it. The 25% scan runs twice per cycle: with
// the four statements once each, the median statement latency was the
// slowest of the 25% scans (the second-fastest kind), so one slow run of
// it moved the median (198-273 ms over ten runs); with five it falls
// inside the 25% scans and the 95th percentile inside the two whole-table
// statements.
func genBulkScan(seed uint64, fx *fixture) []Op {
	rng := xrand.New(seed)
	cols := fx.filterColumns()
	f := cols[rng.Intn(len(cols))]
	quarter := Op{Kind: opFilter, Model: "m64", Backend: "CPU_SKLearn", Where: fx.above(f, 0.75)}
	cycle := []Op{
		{Kind: opScore, Model: "m64", Backend: "CPU_SKLearn"},
		{Kind: opFilter, Model: "m64", Backend: "CPU_SKLearn", Where: fx.above(f, 0.99)},
		quarter,
		{Kind: opGroup, Model: "m64", Backend: "CPU_SKLearn"},
		quarter,
	}
	k := rng.Intn(len(cycle))
	return render(append(cycle[k:], cycle[:k]...), fx)
}

// ingestShares is ingest_mix's mix: point reads, full-table GROUP BY,
// INSERT batches.
var ingestShares = []float64{0.65, 0.05, 0.3}

// ingestInserts bounds how many INSERT batches an n-op ingest_mix stream
// holds: a whole block of mixBlock ops holds exactly its share (30% of 20),
// and the last, partial block at most one more than its share.
func ingestInserts(n int) int {
	return int(math.Ceil(ingestShares[2]*float64(n))) + 1
}

// genIngestMix is the ingest_mix stream: about 60% point reads, 10%
// full-table GROUP BY and 30% INSERT batches numbered in due order.
func genIngestMix(seed uint64, n int, window time.Duration, fx *fixture) []Op {
	rng := xrand.New(seed)
	ops := timed(rng, n, window)
	kinds := deck(rng, n, ingestShares)
	var reads []int
	batch := 0
	for i, k := range kinds {
		switch k {
		case 0:
			reads = append(reads, i)
		case 1:
			ops[i].Kind, ops[i].Model, ops[i].Backend = opGroup, "m16", "CPU_SKLearn"
		case 2:
			ops[i].Kind, ops[i].Batch = opInsert, batch
			batch++
		}
	}
	readOps := make([]Op, len(reads))
	pointReads(rng, readOps, fx, []string{"m16", "m64", "m128"}, 16, 1024)
	for j, i := range reads {
		due := ops[i].Due
		ops[i] = readOps[j]
		ops[i].Due = due
	}
	return render(ops, fx)
}

// shardTenants are the tenant keys tenant-affine queries carry.
var shardTenants = []string{"acme", "globex", "initech", "umbrella", "hooli", "stark", "wayne", "wonka"}

// genShardedTier is the sharded_tier stream over the shards' demo table:
// about 65% scattered EXEC with @limit log-uniform in [256, 16384], 20%
// tenant-affine EXEC, 15% GROUP BY over the same limits, which score as
// many rows as a scatter but return a few counts instead of predictions.
func genShardedTier(seed uint64, n int, window time.Duration, fx *fixture) []Op {
	rng := xrand.New(seed)
	ops := timed(rng, n, window)
	kinds := deck(rng, n, []float64{0.65, 0.2, 0.15})
	bs := even(rng, n, len(scoreBackends))
	limits := logUniform(rng, n, 256, 16384)
	for i := range ops {
		op := &ops[i]
		op.Model, op.Backend = shardModel, scoreBackends[bs[i]]
		switch kinds[i] {
		case 0:
			op.Kind, op.Limit = opScore, limits[i]
		case 1:
			op.Kind, op.Limit = opScore, limits[i]
			op.Tenant = shardTenants[rng.Intn(len(shardTenants))]
		case 2:
			op.Kind, op.Limit = opGroup, limits[i]
		}
	}
	return render(ops, fx)
}

// render writes each op's SQL.
func render(ops []Op, fx *fixture) []Op {
	for i := range ops {
		ops[i].SQL = opSQL(ops[i], fx)
	}
	return ops
}

// lit formats a float so the parser reads back exactly the same value.
func lit(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func opSQL(op Op, fx *fixture) string {
	var sb strings.Builder
	if op.Kind == opInsert {
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", fx.table)
		nf := fx.pool.NumFeatures()
		for r := 0; r < insertBatch; r++ {
			if r > 0 {
				sb.WriteString(", ")
			}
			row := fx.pool.X[(op.Batch*insertBatch+r)*nf : (op.Batch*insertBatch+r+1)*nf]
			sb.WriteByte('(')
			for j, v := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(lit(float64(v)))
			}
			sb.WriteByte(')')
		}
		return sb.String()
	}
	params := fmt.Sprintf("@model = '%s', @data = '%s', @backend = '%s'", op.Model, fx.table, op.Backend)
	if op.Limit > 0 {
		params += fmt.Sprintf(", @limit = %d", op.Limit)
	}
	where := ""
	if op.Where != nil {
		where = fmt.Sprintf(" WHERE %s > %s", op.Where.Column, lit(op.Where.Value))
	}
	switch op.Kind {
	case opScore:
		return "EXEC sp_score_model " + params
	case opGroup:
		return "SELECT prediction, COUNT(*) FROM PREDICT(" + params + ")" + where + " GROUP BY prediction"
	default:
		return "SELECT prediction FROM PREDICT(" + params + ")" + where
	}
}
