package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/core"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/experiments"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/router"
	"accelscore/internal/storage"
)

// system is one workload's running instance of the program under test.
type system interface {
	// run executes one op and returns its timing and normalized answer.
	run(ctx context.Context, op *Op) (done, answer)
	// shardPIDs lists the serve processes the system runs (none in process).
	shardPIDs() []int
	// counters reads the program's own cumulative counters.
	counters() map[string]float64
	// queued samples the executor's waiting queries (0 without one).
	queued() int64
	close()
}

// env is what every setup needs from the benchmark.
type env struct {
	// rec, when set, is wired into the program's public seams; nil means an
	// untraced run that installs no wrappers.
	rec      *recorder
	serveBin string
	workDir  string
	sizes    sizes
	// tamper, when set, corrupts raw results before they are checked (the
	// checker's own tests use it).
	tamper func(any)
}

// sizes fixes the data sizes; tests shrink them.
type sizes struct {
	higgsRows  int // warm_point and bulk_scan table
	ingestRows int // ingest_mix initial table
	shardRows  int // each shard's demo table
	trainRows  int // rows the HIGGS models are trained on
}

var defaultSizes = sizes{higgsRows: 200_000, ingestRows: 50_000, shardRows: 50_000, trainRows: 500}

// dataSeed fixes the table contents; the run seed drives only the op
// stream, so every seed scores the same data with the same models.
const dataSeed = 20210301

const (
	higgsTable = "higgs"
	shardModel = "iris_rf"
	shardTable = "iris"
)

// artifacts are what a setup produced that the benchmark itself needs to
// check answers: the rows in table order and the models as trained.
type artifacts struct {
	data    *dataset.Dataset
	initial int
	pool    *dataset.Dataset
	forests map[string]*forest.Forest
}

// higgsModels are the HIGGS models by name and tree count (all depth 10).
var higgsModels = map[string]int{"m16": 16, "m64": 64, "m128": 128}

func trainModels(d *dataset.Dataset, trainRows int, names []string) (map[string]*forest.Forest, error) {
	train := d.Head(trainRows)
	out := map[string]*forest.Forest{}
	for _, name := range names {
		f, err := forest.Train(train, forest.ForestConfig{
			NumTrees:  higgsModels[name],
			Tree:      forest.TrainConfig{MaxDepth: 10},
			Seed:      uint64(higgsModels[name]),
			Bootstrap: true,
		})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", name, err)
		}
		out[name] = f
	}
	return out, nil
}

// loadHiggs creates the scoring table (features only) and stores models.
func loadHiggs(d *db.Database, rows *dataset.Dataset, forests map[string]*forest.Forest) error {
	tbl, err := db.TableFromDataset(higgsTable, &dataset.Dataset{
		Name: rows.Name, FeatureNames: rows.FeatureNames, ClassNames: rows.ClassNames, X: rows.X,
	})
	if err != nil {
		return err
	}
	if err := d.CreateTable(tbl); err != nil {
		return err
	}
	for name, f := range forests {
		if err := d.StoreModel(name, f); err != nil {
			return err
		}
	}
	return nil
}

// inproc is the executor-fronted scoring tier in this process, configured
// as cmd/serve configures it by default.
type inproc struct {
	e     *env
	db    *db.Database
	pipe  *pipeline.Pipeline
	ex    *exec.Executor
	obs   *obs.Observer
	store *storage.Store
	dir   string
}

func newInproc(d *db.Database, e *env, o *obs.Observer) (*inproc, error) {
	var reg *backend.Registry
	var adv *core.Advisor
	if e.rec != nil {
		var err error
		if reg, adv, err = tracedEngines(e.rec); err != nil {
			return nil, err
		}
	} else {
		tb := platform.New()
		reg, adv = tb.Registry, tb.Advisor
	}
	pipe := &pipeline.Pipeline{
		DB:       d,
		Runtime:  hw.DefaultRuntime(),
		Registry: reg,
		Advisor:  adv,
		Cache:    pipeline.NewModelCache(8),
		Obs:      o,
	}
	ex := exec.New(pipe, exec.Config{
		QueueDepth:     64,
		CoalesceWindow: 2 * time.Millisecond,
		MaxBatch:       8,
	})
	return &inproc{e: e, db: d, pipe: pipe, ex: ex, obs: o}, nil
}

func newObserver() *obs.Observer {
	o := obs.NewObserver()
	o.Attribution = true
	return o
}

// warm runs one full-table query per model, filling the snapshot and
// compiled-model caches before timing starts. The filter passes no row, so
// the warm-up converts and caches the whole table and compiles the model
// without spending set-up time on scoring.
func (s *inproc) warm(ctx context.Context, models []string, column string) error {
	for _, m := range models {
		sql := fmt.Sprintf("SELECT prediction, COUNT(*) FROM PREDICT(@model = '%s', @data = '%s', @backend = 'CPU_SKLearn') WHERE %s > 1e38 GROUP BY prediction",
			m, higgsTable, column)
		if _, err := s.ex.Submit(ctx, sql); err != nil {
			return fmt.Errorf("warm-up %s: %w", m, err)
		}
	}
	return nil
}

// setupInMemory builds warm_point's and bulk_scan's system: a HIGGS table
// in an in-memory database and the named models.
func setupInMemory(ctx context.Context, e *env, models []string) (system, *artifacts, error) {
	data := dataset.Higgs(e.sizes.higgsRows, dataSeed)
	forests, err := trainModels(data, e.sizes.trainRows, models)
	if err != nil {
		return nil, nil, err
	}
	d := db.New()
	if err := loadHiggs(d, data, forests); err != nil {
		return nil, nil, err
	}
	s, err := newInproc(d, e, newObserver())
	if err != nil {
		return nil, nil, err
	}
	if err := s.warm(ctx, models, data.FeatureNames[0]); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, &artifacts{data: data, initial: data.NumRecords(), forests: forests}, nil
}

// setupIngest builds ingest_mix's system: a durable store on a fresh data
// directory with fsync on every commit (serve's default) and the default
// compaction threshold, holding the initial HIGGS rows. inserts sizes the
// pool of rows the stream's INSERTs append.
func setupIngest(ctx context.Context, e *env, inserts int) (system, *artifacts, error) {
	dir, err := os.MkdirTemp(e.workDir, "ingest-")
	if err != nil {
		return nil, nil, err
	}
	o := newObserver()
	st, d, err := storage.Open(storage.Config{Dir: dir, Sync: storage.SyncAlways, Metrics: o.Metrics()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	fail := func(err error) (system, *artifacts, error) {
		st.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	n := e.sizes.ingestRows
	data := dataset.Higgs(n+inserts*insertBatch, dataSeed)
	names := []string{"m16", "m64", "m128"}
	forests, err := trainModels(data, e.sizes.trainRows, names)
	if err != nil {
		return fail(err)
	}
	if err := loadHiggs(d, data.Head(n), forests); err != nil {
		return fail(err)
	}
	if e.rec != nil {
		d.SetJournal(tracedJournal{Journal: st, rec: e.rec})
	}
	s, err := newInproc(d, e, o)
	if err != nil {
		return fail(err)
	}
	s.store, s.dir = st, dir
	if err := s.warm(ctx, names, data.FeatureNames[0]); err != nil {
		s.close()
		return nil, nil, err
	}
	nf := data.NumFeatures()
	pool := &dataset.Dataset{Name: data.Name, FeatureNames: data.FeatureNames, ClassNames: data.ClassNames, X: data.X[n*nf:]}
	return s, &artifacts{data: data, initial: n, pool: pool, forests: forests}, nil
}

func (s *inproc) run(ctx context.Context, op *Op) (done, answer) {
	if op.Kind == opInsert {
		_, a := s.e.rec.start(ctx, layerDB, "insert")
		_, _, err := s.db.Query(op.SQL)
		end := time.Now()
		a.finish()
		return done{end: end, err: err}, answer{}
	}
	ctx, a := s.e.rec.start(ctx, layerExec, op.Kind.String())
	res, err := s.ex.Submit(ctx, op.SQL)
	end := time.Now()
	a.finish()
	if err != nil {
		return done{end: end, err: err}, answer{}
	}
	if s.e.tamper != nil {
		s.e.tamper(res)
	}
	ans, err := fromQuery(*op, res)
	return done{end: end, rows: res.RowsScanned, wrong: err}, ans
}

func (s *inproc) shardPIDs() []int { return nil }
func (s *inproc) queued() int64    { return s.ex.Queued() }

func (s *inproc) counters() map[string]float64 {
	reg := s.obs.Metrics()
	cs := s.pipe.Cache.Stats()
	batches := reg.Histogram(exec.MetricBatchSize, "", nil)
	m := map[string]float64{
		"cache_hits":   float64(cs.Hits),
		"cache_misses": float64(cs.Misses),
		"snap_hits":    reg.Counter(pipeline.MetricSnapshotCacheEventsTotal, "", "event", "hit").Value(),
		"snap_misses":  reg.Counter(pipeline.MetricSnapshotCacheEventsTotal, "", "event", "miss").Value(),
		"batches":      float64(batches.Count()),
		"batched":      batches.Sum(),
	}
	if s.store != nil {
		m["wal_bytes"] = reg.Counter(storage.MetricWALBytesTotal, "").Value()
		m["fsyncs"] = reg.Counter(storage.MetricWALFsyncsTotal, "").Value()
		m["compactions"] = reg.Counter(storage.MetricCompactionsTotal, "").Value()
	}
	return m
}

func (s *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.ex.Close(ctx)
	if s.store != nil {
		s.store.Close()
		os.RemoveAll(s.dir)
	}
}

// sharded is the scale-out tier: a router in this process over serve
// shards on loopback, configured like cmd/router -hedge -max-inflight 64
// with its default health probes. 64, not 4, queries in flight: with 4 or
// 8, Poisson bursts at this workload's rate were refused whenever the
// shared host slowed (see calibration.json), and the benchmark's workloads
// must not fail ops. Admission still counts every query; it never sheds.
type sharded struct {
	e     *env
	procs []*shardProc
	rt    *router.Router
	obs   *obs.Observer
}

const shardCount = 2

func setupSharded(ctx context.Context, e *env) (system, *artifacts, error) {
	s := &sharded{e: e, obs: obs.NewObserver()}
	for i := 0; i < shardCount; i++ {
		p, err := startShard(ctx, e.serveBin, i, e.sizes.shardRows)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.procs = append(s.procs, p)
	}
	var rt http.RoundTripper = router.SharedTransport(32)
	if e.rec != nil {
		rt = tracedTransport{base: rt, rec: e.rec}
	}
	client := &http.Client{Transport: rt, Timeout: 120 * time.Second}
	backends := make([]router.Backend, len(s.procs))
	for i, p := range s.procs {
		b, err := router.NewHTTPShard(fmt.Sprintf("shard-%d", i), p.url, client)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		backends[i] = b
		if e.rec != nil {
			backends[i] = tracedShard{Backend: b, rec: e.rec}
		}
	}
	r, err := router.New(router.Config{
		Backends:   backends,
		Obs:        s.obs,
		WarmModels: []string{shardModel},
		Health:     &router.HealthConfig{ProbeInterval: 2 * time.Second},
		Hedge:      &router.HedgeConfig{},
		Admission:  &router.AdmissionConfig{MaxInFlight: 64},
	})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.rt = r
	// One full-table query fills each shard's table snapshot.
	warm := fmt.Sprintf("EXEC sp_score_model @model = '%s', @data = '%s', @backend = 'CPU_SKLearn'", shardModel, shardTable)
	if _, err := r.Query(ctx, warm, router.QueryOptions{}); err != nil {
		s.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	// The oracle's single-node reference: the demo's table and forest,
	// rebuilt here from the same public definitions.
	f, err := forest.Train(dataset.Iris(), experiments.DemoForestConfig)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	data := dataset.Iris().Replicate(e.sizes.shardRows)
	return s, &artifacts{data: data, initial: data.NumRecords(), forests: map[string]*forest.Forest{shardModel: f}}, nil
}

func (s *sharded) run(ctx context.Context, op *Op) (done, answer) {
	ctx, a := s.e.rec.start(ctx, layerRouter, op.Kind.String())
	m, err := s.rt.Query(ctx, op.SQL, router.QueryOptions{Tenant: op.Tenant})
	end := time.Now()
	a.finish()
	if err != nil {
		return done{end: end, err: err}, answer{}
	}
	if s.e.tamper != nil {
		s.e.tamper(m)
	}
	ans, err := fromMerged(*op, m)
	return done{end: end, rows: m.RowsScanned, wrong: err}, ans
}

func (s *sharded) shardPIDs() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.pid()
	}
	return out
}

func (s *sharded) queued() int64 { return 0 }

func (s *sharded) counters() map[string]float64 {
	reg := s.obs.Metrics()
	m := map[string]float64{
		"subqueries": reg.Histogram(obs.MetricRouterScatterWidth, "", nil).Sum(),
	}
	for _, o := range []string{"win", "loss", "mismatch"} {
		m["hedges"] += reg.Counter(obs.MetricRouterHedgesTotal, "", "outcome", o).Value()
	}
	for i := range s.procs {
		m["reroutes"] += float64(s.rt.RerouteCount(i))
	}
	for _, st := range s.rt.AdmissionStats() {
		m["offered"] += float64(st.Offered)
		m["shed"] += float64(st.Shed)
	}
	return m
}

func (s *sharded) close() {
	if s.rt != nil {
		s.rt.Close()
	}
	for _, p := range s.procs {
		p.kill()
	}
}
