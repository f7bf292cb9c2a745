package main

import (
	"context"
	"io"
	"net/http"
	"sync"

	"accelscore/internal/backend"
	"accelscore/internal/core"
	"accelscore/internal/db"
	"accelscore/internal/platform"
	"accelscore/internal/router"
)

// Layer names of recorded spans. Only traced runs install the wrappers
// that record them.
const (
	layerExec    = "exec"    // Executor.Submit: a scoring query end to end
	layerDB      = "db"      // Database.Query: an INSERT end to end
	layerRouter  = "router"  // Router.Query: a routed query end to end
	layerShard   = "shard"   // router.Backend.Score: one sub-query's round trip
	layerWire    = "wire"    // the shard client's HTTP exchange, up to headers
	layerBody    = "body"    // a /score response body, headers to EOF
	layerEngines = "engines" // backend.Backend.Score
	layerStorage = "storage" // db.Journal.LogInsert
)

// set sizes the span; nil-safe like finish.
func (a *active) set(rows int64, trees int, bytes int64) {
	if a == nil {
		return
	}
	a.s.Rows, a.s.Trees, a.s.Bytes = rows, trees, bytes
}

// tracedEngine times every Score call of one engine.
type tracedEngine struct {
	backend.Backend
	rec *recorder
}

func (e tracedEngine) Score(req *backend.Request) (*backend.Result, error) {
	_, a := e.rec.start(req.Context(), layerEngines, e.Name())
	if req.Forest != nil && req.Data != nil {
		a.set(int64(req.NumScored()), len(req.Forest.Trees), 0)
	}
	res, err := e.Backend.Score(req)
	a.finish()
	return res, err
}

// tracedEngines registers the testbed's engines, each wrapped, in a fresh
// registry, and builds the offload advisor over the wrapped engines.
func tracedEngines(rec *recorder) (*backend.Registry, *core.Advisor, error) {
	tb := platform.New()
	wrap := func(bs []backend.Backend) []backend.Backend {
		out := make([]backend.Backend, len(bs))
		for i, b := range bs {
			out[i] = tracedEngine{Backend: b, rec: rec}
		}
		return out
	}
	cpu, acc := wrap(tb.CPUBackends()), wrap(tb.AcceleratorBackends())
	reg := backend.NewRegistry()
	for _, b := range append(append([]backend.Backend(nil), cpu...), acc...) {
		if err := reg.Register(b); err != nil {
			return nil, nil, err
		}
	}
	return reg, &core.Advisor{CPU: cpu, Accelerators: acc, MinGain: tb.Advisor.MinGain}, nil
}

// tracedJournal times the WAL append (and fsync) of every INSERT.
type tracedJournal struct {
	db.Journal
	rec *recorder
}

func (j tracedJournal) LogInsert(table string, cols []db.Column, rows [][]db.Value) error {
	_, a := j.rec.start(context.Background(), layerStorage, "log insert")
	a.set(int64(len(rows)), 0, 0)
	err := j.Journal.LogInsert(table, cols, rows)
	a.finish()
	return err
}

// tracedShard times each sub-query the router sends to one shard.
type tracedShard struct {
	router.Backend
	rec *recorder
}

func (s tracedShard) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	ctx, a := s.rec.start(ctx, layerShard, s.ID())
	res, err := s.Backend.Score(ctx, req)
	if res != nil {
		a.set(int64(res.RowsScored), 0, 0)
	}
	a.finish()
	return res, err
}

// tracedTransport times the /score exchange on the shard client: the round
// trip up to response headers, then the body from headers to EOF.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/score" {
		return t.base.RoundTrip(req)
	}
	_, a := t.rec.start(req.Context(), layerWire, "round trip")
	a.set(0, 0, max(req.ContentLength, 0))
	resp, err := t.base.RoundTrip(req)
	a.finish()
	if err != nil || a == nil {
		return resp, err
	}
	_, b := t.rec.start(req.Context(), layerBody, "body")
	resp.Body = &tracedBody{ReadCloser: resp.Body, a: b}
	return resp, nil
}

// tracedBody closes its span at EOF or Close, whichever comes first.
type tracedBody struct {
	io.ReadCloser
	a    *active
	n    int64
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *tracedBody) end() {
	b.once.Do(func() {
		b.a.set(0, 0, b.n)
		b.a.finish()
	})
}
