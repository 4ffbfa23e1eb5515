package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/store"
)

// Span tracing lives entirely in the benchmark: every span is recorded
// around a call into one of the program's public seams (the SDK's HTTP
// transport, the http.Handler, serve.Querier, serve.Ingestor and
// store.ShardBackend), never inside the program.

// span is one timed call at a layer boundary. Spans of one request share
// req; parent links a span to the span that caused it (0 for a root).
type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Time
	n               int64 // work count: docs returned, items served, ...
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

type spanKey struct{}

// active is the span a context is currently inside.
type active struct{ id, req uint64 }

func (r *recorder) begin(ctx context.Context, name string) (context.Context, *span) {
	sp := &span{id: r.ids.Add(1), name: name, start: time.Now()}
	if a, ok := ctx.Value(spanKey{}).(active); ok {
		sp.parent, sp.req = a.id, a.req
	}
	return context.WithValue(ctx, spanKey{}, active{id: sp.id, req: sp.req}), sp
}

// root starts the span of a new request; the span id doubles as its
// request id.
func (r *recorder) root(ctx context.Context, name string) (context.Context, *span) {
	id := r.ids.Add(1)
	sp := &span{id: id, req: id, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, active{id: id, req: id}), sp
}

func (r *recorder) end(sp *span) {
	sp.end = time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, *sp)
	r.mu.Unlock()
}

// ---- SDK transport -------------------------------------------------------

// traceHeader carries "<request id>.<client span id>" from the generator
// to the handler wrapper.
const traceHeader = "X-Bench-Trace"

// tracingTransport is installed through client.WithHTTPClient: it records
// the client-side span of each exchange, the wait for a connection and
// the response bytes, and forwards the request id to the server.
type tracingTransport struct {
	rec  *recorder
	next http.RoundTripper
	post http.RoundTripper // writes, when they have connections of their own

	mu       sync.Mutex
	connWait []float64
	bytesIn  int64
	calls    int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.rec.begin(req.Context(), "client")
	var asked time.Time
	var wait time.Duration
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { asked = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { wait = time.Since(asked) },
	})
	req = req.Clone(ctx)
	req.Header.Set(traceHeader, strconv.FormatUint(sp.req, 10)+"."+strconv.FormatUint(sp.id, 10))
	next := t.next
	if req.Method == http.MethodPost && t.post != nil {
		next = t.post
	}
	resp, err := next.RoundTrip(req)
	if err != nil {
		t.rec.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp, wait: wait}
	return resp, nil
}

// spanBody ends the client span when the SDK has read and closed the body.
type spanBody struct {
	io.ReadCloser
	t    *tracingTransport
	sp   *span
	wait time.Duration
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.n = b.n
		b.t.rec.end(b.sp)
		b.t.mu.Lock()
		b.t.connWait = append(b.t.connWait, ms(b.wait))
		b.t.bytesIn += b.n
		b.t.calls++
		b.t.mu.Unlock()
	})
	return err
}

// ---- HTTP handler -----------------------------------------------------------

// handlerStats aggregates what the handler wrapper sees per response.
type handlerStats struct {
	mu                   sync.Mutex
	reads, hits, revalid int64
	status429            int64
	bytesOut, responses  int64
	findItems, findDocs  int64
}

type reqInfoKey struct{}

// reqInfo lets the Querier wrapper report how many docs FindEntities
// materialised back to the handler wrapper of the same request.
type reqInfo struct{ findDocs atomic.Int64 }

// traceHandler wraps the whole serve handler (middleware included) in a
// "serve" span parented to the client span named in traceHeader.
func traceHandler(rec *recorder, hs *handlerStats, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if v := r.Header.Get(traceHeader); v != "" {
			reqID, parent, _ := strings.Cut(v, ".")
			a := active{}
			a.req, _ = strconv.ParseUint(reqID, 10, 64)
			a.id, _ = strconv.ParseUint(parent, 10, 64)
			ctx = context.WithValue(ctx, spanKey{}, a)
		}
		info := &reqInfo{}
		ctx = context.WithValue(ctx, reqInfoKey{}, info)
		ctx, sp := rec.begin(ctx, "serve")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		rec.end(sp)

		hs.mu.Lock()
		defer hs.mu.Unlock()
		hs.responses++
		hs.bytesOut += sw.n
		if sw.status == http.StatusTooManyRequests {
			hs.status429++
		}
		if r.Method != http.MethodGet {
			return
		}
		hs.reads++
		switch sw.Header().Get("X-Cache") {
		case "HIT":
			hs.hits++
		case "REVALIDATED":
			hs.hits++
			hs.revalid++
		}
		if r.URL.Path == "/v1/find" && sw.status == http.StatusOK {
			if docs := info.findDocs.Load(); docs > 0 {
				hs.findDocs += docs
				hs.findItems += pageItems(r, docs)
			}
		}
	})
}

// pageItems is the number of items /v1/find returns for a request over
// docs matches: the limit/offset window, defaults as in serve.
func pageItems(r *http.Request, docs int64) int64 {
	q := r.URL.Query()
	limit, offset := int64(10), int64(0)
	if v, err := strconv.ParseInt(q.Get("limit"), 10, 64); err == nil && v > 0 {
		limit = v
	}
	if v, err := strconv.ParseInt(q.Get("offset"), 10, 64); err == nil && v > 0 {
		offset = v
	}
	return max(0, min(limit, docs-offset))
}

type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// ---- serve.Querier / serve.Ingestor ----------------------------------------

// tracedQuerier times each query method as a core.<method> span.
type tracedQuerier struct {
	rec *recorder
	q   serve.Querier
}

var _ serve.Querier = tracedQuerier{}

func (t tracedQuerier) InstanceStats() store.Stats { return t.q.InstanceStats() }
func (t tracedQuerier) EntityStats() store.Stats   { return t.q.EntityStats() }

func (t tracedQuerier) InstanceStatsCtx(ctx context.Context) (store.Stats, error) {
	ctx, sp := t.rec.begin(ctx, "core.stats")
	defer t.rec.end(sp)
	return t.q.InstanceStatsCtx(ctx)
}

func (t tracedQuerier) EntityStatsCtx(ctx context.Context) (store.Stats, error) {
	ctx, sp := t.rec.begin(ctx, "core.stats")
	defer t.rec.end(sp)
	return t.q.EntityStatsCtx(ctx)
}

func (t tracedQuerier) EntityTypeCounts(ctx context.Context) ([]core.TypeCount, error) {
	ctx, sp := t.rec.begin(ctx, "core.types")
	defer t.rec.end(sp)
	return t.q.EntityTypeCounts(ctx)
}

func (t tracedQuerier) TopDiscussed(ctx context.Context, k int) ([]fuse.Discussed, error) {
	ctx, sp := t.rec.begin(ctx, "core.top")
	defer t.rec.end(sp)
	return t.q.TopDiscussed(ctx, k)
}

func (t tracedQuerier) QueryWebText(ctx context.Context, show string) (*record.Record, error) {
	ctx, sp := t.rec.begin(ctx, "core.show")
	defer t.rec.end(sp)
	return t.q.QueryWebText(ctx, show)
}

func (t tracedQuerier) QueryFused(ctx context.Context, show string) (*record.Record, error) {
	ctx, sp := t.rec.begin(ctx, "core.show")
	defer t.rec.end(sp)
	return t.q.QueryFused(ctx, show)
}

func (t tracedQuerier) QueryShow(ctx context.Context, show string) (*record.Record, *record.Record, error) {
	ctx, sp := t.rec.begin(ctx, "core.show")
	defer t.rec.end(sp)
	return t.q.QueryShow(ctx, show)
}

func (t tracedQuerier) ShowInFused(ctx context.Context, show string) (bool, error) {
	ctx, sp := t.rec.begin(ctx, "core.show")
	defer t.rec.end(sp)
	return t.q.ShowInFused(ctx, show)
}

func (t tracedQuerier) CheapestShows(ctx context.Context, k int) ([]fuse.PricedShow, error) {
	ctx, sp := t.rec.begin(ctx, "core.cheapest")
	defer t.rec.end(sp)
	return t.q.CheapestShows(ctx, k)
}

func (t tracedQuerier) FindEntities(ctx context.Context, query string) ([]*store.Doc, error) {
	cctx, sp := t.rec.begin(ctx, "core.find")
	docs, err := t.q.FindEntities(cctx, query)
	sp.n = int64(len(docs))
	t.rec.end(sp)
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		info.findDocs.Add(int64(len(docs)))
	}
	return docs, err
}

// tracedIngestor times each write's acknowledgement as a live.ack span.
type tracedIngestor struct {
	rec *recorder
	ing serve.Ingestor
}

var _ serve.Ingestor = tracedIngestor{}

func (t tracedIngestor) IngestText(ctx context.Context, frags []live.Fragment) error {
	ctx, sp := t.rec.begin(ctx, "live.ack")
	defer t.rec.end(sp)
	return t.ing.IngestText(ctx, frags)
}

func (t tracedIngestor) IngestRecords(ctx context.Context, source string, recs []*record.Record) error {
	ctx, sp := t.rec.begin(ctx, "live.ack")
	defer t.rec.end(sp)
	return t.ing.IngestRecords(ctx, source, recs)
}

func (t tracedIngestor) Flush(ctx context.Context) error      { return t.ing.Flush(ctx) }
func (t tracedIngestor) Checkpoint(ctx context.Context) error { return t.ing.Checkpoint(ctx) }
func (t tracedIngestor) Stats() live.Stats                    { return t.ing.Stats() }

// ---- store.ShardBackend ------------------------------------------------------

// tracedShard times each shard call as a store.<op> span. Inserts from the
// live applier carry no request id; they become roots attributed to
// live.apply.
type tracedShard struct {
	rec *recorder
	b   store.ShardBackend
}

var _ store.ShardBackend = tracedShard{}

func (t tracedShard) NS() string { return t.b.NS() }

func (t tracedShard) Insert(ctx context.Context, d *store.Doc) (int64, error) {
	ctx, sp := t.rec.begin(ctx, "store.insert")
	defer t.rec.end(sp)
	return t.b.Insert(ctx, d)
}

func (t tracedShard) Update(ctx context.Context, id int64, d *store.Doc) (bool, error) {
	ctx, sp := t.rec.begin(ctx, "store.other")
	defer t.rec.end(sp)
	return t.b.Update(ctx, id, d)
}

func (t tracedShard) Delete(ctx context.Context, id int64) (bool, error) {
	ctx, sp := t.rec.begin(ctx, "store.other")
	defer t.rec.end(sp)
	return t.b.Delete(ctx, id)
}

func (t tracedShard) Find(ctx context.Context, f store.Filter) ([]*store.Doc, error) {
	ctx, sp := t.rec.begin(ctx, "store.find")
	docs, err := t.b.Find(ctx, f)
	sp.n = int64(len(docs))
	t.rec.end(sp)
	return docs, err
}

func (t tracedShard) Count(ctx context.Context) (int64, error) {
	ctx, sp := t.rec.begin(ctx, "store.other")
	defer t.rec.end(sp)
	return t.b.Count(ctx)
}

func (t tracedShard) CountWhere(ctx context.Context, f store.Filter) (int64, error) {
	ctx, sp := t.rec.begin(ctx, "store.count_where")
	defer t.rec.end(sp)
	return t.b.CountWhere(ctx, f)
}

func (t tracedShard) Distinct(ctx context.Context, path string) (map[string]int64, error) {
	ctx, sp := t.rec.begin(ctx, "store.distinct")
	defer t.rec.end(sp)
	return t.b.Distinct(ctx, path)
}

func (t tracedShard) Stats(ctx context.Context) (store.Stats, error) {
	ctx, sp := t.rec.begin(ctx, "store.stats")
	defer t.rec.end(sp)
	return t.b.Stats(ctx)
}

func (t tracedShard) Snapshot(ctx context.Context) ([]int64, []*store.Doc, error) {
	ctx, sp := t.rec.begin(ctx, "store.other")
	defer t.rec.end(sp)
	return t.b.Snapshot(ctx)
}

func (t tracedShard) CreateIndex(ctx context.Context, name, path string, kind store.IndexKind) error {
	return t.b.CreateIndex(ctx, name, path, kind)
}

func (t tracedShard) CreateTextIndex(ctx context.Context, path string) error {
	return t.b.CreateTextIndex(ctx, path)
}

// traceSharded rebuilds a router over traced copies of s's backends. The
// route is nil: the benchmark's cluster uses mod-N routing, which is also
// the router's default, so documents land where they did before.
func traceSharded(rec *recorder, s *store.Sharded) (*store.Sharded, error) {
	backends := make([]store.ShardBackend, s.NumShards())
	for i := range backends {
		backends[i] = tracedShard{rec: rec, b: s.Backend(i)}
	}
	return store.NewShardedBackends(s.NS(), s.KeyPath(), backends, nil)
}
