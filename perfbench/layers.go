package main

import (
	"bufio"
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/live"
	"repro/internal/obs"
)

// marks are process and system counters read at both ends of the traced
// phase; every counter metric is the difference between the two, so
// set-up, the earlier builds and the untraced phases stay out of it.
type marks struct {
	cpu          time.Duration
	mallocs      uint64
	gcCPU        float64 // runtime/metrics GC CPU seconds
	totalCPU     float64 // runtime/metrics available CPU seconds
	wireBytes    int64
	accepted     int64
	retries      float64
	breakerOpens float64
	live         live.Stats
	pendingMax   int
	flushMs      float64
	stopSample   func()
}

func (h *harness) mark() *marks {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	mk := &marks{
		cpu: cpuTime(), mallocs: m.Mallocs,
		gcCPU: rm[0].Value.Float64(), totalCPU: rm[1].Value.Float64(),
		retries:      scrape("dt_cluster_retries_total", `outcome="retry"`),
		breakerOpens: scrape("dt_cluster_breaker_transitions_total", `to="open"`),
	}
	if h.sys.nodeLn != nil {
		mk.wireBytes = h.sys.nodeLn.bytes.Load()
		mk.accepted = h.sys.nodeLn.accepted.Load()
	}
	if h.sys.ing != nil {
		mk.live = h.sys.ing.Stats()
	}
	return mk
}

// samplePending records the highest acknowledged-but-unapplied event count
// seen every 5ms until the returned stop is called.
func (h *harness) samplePending(mk *marks) {
	if h.sys.ing == nil {
		mk.stopSample = func() {}
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	ing := h.sys.ing
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if p := ing.Stats().Pending; p > mk.pendingMax {
					mk.pendingMax = p
				}
			}
		}
	}()
	var once sync.Once
	mk.stopSample = func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
}

// traceRun is one traced stretch of a run: the installed wrappers, what
// they collect, and the counters read at both ends.
type traceRun struct {
	rec     *recorder
	hs      *handlerStats
	tt      *tracingTransport
	sdk     *client.Client
	restore func() error
	before  *marks
	after   *marks
}

// startTrace installs the traced seams and starts collecting.
func (h *harness) startTrace(ctx context.Context) (*traceRun, error) {
	tc := &traceRun{rec: &recorder{}, hs: &handlerStats{}}
	tc.tt = &tracingTransport{rec: tc.rec}
	var err error
	if tc.sdk, tc.restore, err = h.installTracing(ctx, tc.rec, tc.hs, tc.tt); err != nil {
		return nil, err
	}
	tc.begin(h)
	return tc, nil
}

// begin drops whatever was collected so far (a warm-up) and marks the
// start of the measured traced stretch.
func (tc *traceRun) begin(h *harness) {
	if tc.before != nil {
		tc.before.stopSample()
	}
	tc.rec.mu.Lock()
	tc.rec.spans = nil
	tc.rec.mu.Unlock()
	tc.hs.mu.Lock()
	tc.hs.reads, tc.hs.hits, tc.hs.revalid, tc.hs.status429 = 0, 0, 0, 0
	tc.hs.bytesOut, tc.hs.responses, tc.hs.findItems, tc.hs.findDocs = 0, 0, 0, 0
	tc.hs.mu.Unlock()
	tc.tt.mu.Lock()
	tc.tt.connWait, tc.tt.bytesIn, tc.tt.calls = nil, 0, 0
	tc.tt.mu.Unlock()
	tc.before = h.mark()
	h.samplePending(tc.before)
}

// finish ends the traced stretch and removes the traced seams; checkpoint
// and recovery need the untraced routers, because a traced backend hides
// the local shards SaveStores snapshots.
func (tc *traceRun) finish(h *harness) error {
	tc.before.stopSample()
	tc.after = h.mark()
	return tc.restore()
}

// recorder is nil-safe so untraced callers can pass tc.recorder().
func (tc *traceRun) recorder() *recorder {
	if tc == nil {
		return nil
	}
	return tc.rec
}

// tracedPhase is the traced half of a read workload's traced run.
func (h *harness) tracedPhase(ctx context.Context, dur time.Duration, untraced phaseResult) error {
	w := h.w
	tc, err := h.startTrace(ctx)
	if err != nil {
		return err
	}
	h.count(h.phase(ctx, tc.sdk, w.rate, time.Second/2, w.writeShare, nil, nil))
	tc.begin(h)
	var pr *probe
	if w.live {
		pr = startProbe(ctx, h.sys.t)
	}
	p := h.phase(ctx, tc.sdk, w.rate, dur, w.writeShare, pr, tc.rec)
	h.count(p)
	tc.before.stopSample()
	if h.sys.ing != nil {
		t0 := time.Now()
		if err := h.sys.ing.Flush(ctx); err != nil {
			return err
		}
		tc.before.flushMs = ms(time.Since(t0))
	}
	if pr != nil {
		pr.finish(ctx)
	}
	if err := tc.finish(h); err != nil {
		return err
	}
	h.res.layer = h.layers(tc.rec, tc.hs, tc.tt, p, untraced, tc.before, tc.after)
	return nil
}

// setLayer overwrites one per-layer metric's value.
func setLayer(ms []metric, name string, v float64) {
	for i := range ms {
		if ms[i].name == name {
			ms[i].value = v
		}
	}
}

// dur of a span in ms.
func (s *span) ms() float64 { return ms(s.end.Sub(s.start)) }

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(lo, hi time.Time, spans []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 {
			cur = v
			continue
		}
		if !v.a.After(cur.b) {
			if v.b.After(cur.b) {
				cur.b = v.b
			}
			continue
		}
		total += cur.b.Sub(cur.a)
		cur = v
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layers computes every per-layer metric from the traced phase.
func (h *harness) layers(rec *recorder, hs *handlerStats, tt *tracingTransport, traced, untraced phaseResult, before, after *marks) []metric {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	children := map[uint64][]*span{}
	for i := range spans {
		children[spans[i].parent] = append(children[spans[i].parent], &spans[i])
	}
	self := func(s *span) float64 {
		return ms(s.end.Sub(s.start) - covered(s.start, s.end, children[s.id]))
	}
	readReq := map[uint64]bool{}
	ids := map[uint64]bool{}
	by := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		by[s.name] = append(by[s.name], s)
		ids[s.id] = true
		if s.name == "gen" {
			readReq[s.req] = true
		}
	}
	// A span is an orphan when its parent was never recorded, or when it
	// sits behind the handler but has no parent at all: a lost trace header
	// or a dropped context. Shard calls with no parent are the live
	// applier's (live.apply); the probe's carry a parent that is no span.
	var orphans float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.parent == ^uint64(0):
		case s.parent != 0:
			if !ids[s.parent] {
				orphans++
			}
		case s.name == "client" || s.name == "serve" || s.name == "live.ack" || strings.HasPrefix(s.name, "core."):
			orphans++
		}
	}
	// A read is linked when its generator span has a client span with a
	// serve span under it. What neither the handler nor anything below it
	// accounts for (generator and client self time: scheduling, encoding,
	// the connection, the kernel) is reported as a share of read time.
	var linked, unattributed, readTime float64
	for _, g := range by["gen"] {
		ok := false
		un := self(g)
		for _, cl := range children[g.id] {
			un += self(cl)
			for _, srv := range children[cl.id] {
				ok = ok || srv.name == "serve"
			}
		}
		if ok {
			linked++
		}
		unattributed += un
		readTime += g.ms()
	}

	var out []metric
	add := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name: name, value: v, unit: unit})
	}
	durs := func(ss []*span) []float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = s.ms()
		}
		return v
	}
	selfs := func(ss []*span) []float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = self(s)
		}
		return v
	}
	sum := func(v []float64) float64 {
		t := 0.0
		for _, x := range v {
			t += x
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reads := float64(len(by["gen"]))
	ops := reads + float64(len(by["gen.write"]))

	// Generator and SDK.
	ld := summarize(traced.late)
	add("gen.late_p50_ms", ld.p50, "ms")
	add("gen.late_p99_ms", ld.at(0.99), "ms")
	tt.mu.Lock()
	add("client.conn_wait_p99_ms", summarize(tt.connWait).at(0.99), "ms")
	add("client.bytes_in_per_req", ratio(float64(tt.bytesIn), float64(tt.calls)), "bytes")
	tt.mu.Unlock()
	cd := summarize(durs(by["client"]))
	add("client.call_p50_ms", cd.p50, "ms")
	add("client.call_p99_ms", cd.at(0.99), "ms")

	// Serve handler and middleware.
	sd := summarize(durs(by["serve"]))
	add("serve.handler_p50_ms", sd.p50, "ms")
	add("serve.handler_p99_ms", sd.at(0.99), "ms")
	add("serve.busy_s", sum(durs(by["serve"]))/1000, "s")
	add("serve.self_p50_ms", summarize(selfs(by["serve"])).p50, "ms")
	hs.mu.Lock()
	add("serve.cache_hit_ratio", ratio(float64(hs.hits), float64(hs.reads)), "ratio")
	add("serve.revalidated_ratio", ratio(float64(hs.revalid), float64(hs.reads)), "ratio")
	add("serve.status_429", float64(hs.status429), "count")
	add("serve.bytes_out_per_req", ratio(float64(hs.bytesOut), float64(hs.responses)), "bytes")
	add("serve.find_items_per_doc", ratio(float64(hs.findItems), float64(hs.findDocs)), "ratio")
	hs.mu.Unlock()

	// Core queries.
	var coreBusy float64
	for _, m := range []string{"stats", "types", "top", "cheapest", "find", "show"} {
		ss := by["core."+m]
		d := summarize(durs(ss))
		add("core."+m+".calls", float64(len(ss)), "count")
		add("core."+m+".p50_ms", d.p50, "ms")
		add("core."+m+".p99_ms", d.at(0.99), "ms")
		add("core."+m+".self_p50_ms", summarize(selfs(ss)).p50, "ms")
		coreBusy += sum(durs(ss))
	}
	add("core.busy_s", coreBusy/1000, "s")

	// Store shard backends. The probe's own reads are excluded.
	isProbe := func(s *span) bool { return s.parent == ^uint64(0) }
	var storeBusy, readCalls, findDocs, finds float64
	skews := []float64{}
	for _, op := range []string{"find", "count_where", "distinct", "stats", "insert", "other"} {
		var ss []*span
		for _, s := range by["store."+op] {
			if isProbe(s) {
				continue
			}
			ss = append(ss, s)
			storeBusy += s.ms()
			if readReq[s.req] {
				readCalls++
			}
			if op == "find" {
				finds++
				findDocs += float64(s.n)
			}
		}
		if op == "other" {
			continue
		}
		d := summarize(durs(ss))
		add("store."+op+".calls", float64(len(ss)), "count")
		add("store."+op+".p50_ms", d.p50, "ms")
		add("store."+op+".p99_ms", d.at(0.99), "ms")
	}
	for parent, kids := range children {
		if parent == 0 || parent == ^uint64(0) || len(kids) < 2 || !strings.HasPrefix(kids[0].name, "store.") {
			continue
		}
		groups := map[string][]float64{}
		for _, k := range kids {
			groups[k.name] = append(groups[k.name], k.ms())
		}
		for _, g := range groups {
			if len(g) >= 2 {
				if m := median(g); m > 0 {
					skews = append(skews, slices.Max(g)/m)
				}
			}
		}
	}
	add("store.busy_s", storeBusy/1000, "s")
	add("store.calls_per_read", ratio(readCalls, reads), "count")
	add("store.docs_per_find", ratio(findDocs, finds), "count")
	add("store.fanout_skew_p50", summarize(skews).p50, "ratio")

	// Live ingester.
	ad := summarize(durs(by["live.ack"]))
	add("live.ack_p50_ms", ad.p50, "ms")
	add("live.ack_p99_ms", ad.at(0.99), "ms")
	add("live.pending_max", float64(before.pendingMax), "count")
	a, b := after.live, before.live // zero without an ingester
	batches := float64(a.Batches - b.Batches)
	events := float64(a.TextEvents + a.RecordEvents - b.TextEvents - b.RecordEvents)
	batchMs := a.AvgBatchMs*float64(a.Batches) - b.AvgBatchMs*float64(b.Batches)
	add("live.fused_refreshes", float64(a.FusedRefreshes-b.FusedRefreshes), "count")
	add("live.apply_errors", float64(a.ApplyErrors-b.ApplyErrors), "count")
	add("live.wal_bytes_per_event", ratio(float64(a.WALSizeBytes-b.WALSizeBytes), float64(a.WALEvents-b.WALEvents)), "bytes")
	add("live.batches", batches, "count")
	add("live.avg_batch_ms", ratio(batchMs, batches), "ms")
	add("live.events_per_batch", ratio(events, batches), "count")
	add("live.flush_ms", before.flushMs, "ms")
	add("live.replay_applied", 0, "count")

	// Cluster transport: the node listener and the resilience counters.
	add("cluster.wire_bytes_per_read", ratio(float64(after.wireBytes-before.wireBytes), reads), "bytes")
	add("cluster.conns_accepted", float64(after.accepted-before.accepted), "count")
	add("cluster.retries", after.retries-before.retries, "count")
	add("cluster.breaker_opens", after.breakerOpens-before.breakerOpens, "count")

	// Process.
	add("proc.cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), ops), "ms")
	add("proc.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), ops), "count")
	add("proc.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")

	// Tracing overhead, and whether the layers account for the request.
	td, ud := summarize(traced.reads), summarize(untraced.reads)
	add("trace.overhead_p50_ms", td.p50-ud.p50, "ms")
	add("trace.overhead_p99_ms", td.at(0.99)-ud.at(0.99), "ms")
	add("trace.orphan_spans", orphans, "count")
	add("trace.linked_read_ratio", ratio(linked, reads), "ratio")
	add("trace.unattributed_ratio", ratio(unattributed, readTime), "ratio")
	sortMetrics(out)
	return out
}

// scrape sums the process registry's samples of family whose labels
// contain match.
func scrape(family, match string) float64 {
	rr := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	var total float64
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, match) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

func sortMetrics(ms []metric) { sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name }) }
