package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/live"
)

// planned is one scheduled operation: a write, or a read of key.
type planned struct {
	write bool
	key   readKey
}

// harness is the state one run shares between its phases.
type harness struct {
	w      *workload
	seed   int64
	sys    *system
	chk    *checker
	sdk    *client.Client
	hc     *http.Client
	tr     *http.Transport
	wsdk   *client.Client  // ingest_stream's writers, on connections of their own
	wtr    *http.Transport // nil unless the workload has closed-loop writers
	keys   *keySpace
	mix    *rand.Rand // places the writes among the reads
	pool   *writePool
	log    *writeLog
	base   int64 // instance count before any live write
	res    *result
	golden map[string][]byte
}

func run(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool, workdir string) (*result, error) {
	res := &result{workload: w.name, correct: true, meta: runMeta()}
	steal0 := stealSeconds()
	defer func() { res.meta["cpu_steal_s"] = stealSeconds() - steal0 }()
	res.meta["seed"] = seed
	res.meta["fragments"] = w.fragments
	res.meta["nominal_rate_rps"] = w.rate
	res.meta["ladder_rps"] = w.ladder
	res.meta["read_p99_limit_ms"] = w.limitMs
	res.meta["write_share"] = w.writeShare
	res.meta["writers"] = w.writers
	res.meta["read_rate_rps"] = w.readRate
	res.meta["generator_conns"] = runtime.NumCPU()
	res.meta["seconds"] = dur.Seconds()
	res.meta["traced"] = traced
	if w.live {
		res.meta["flush_policy"] = "WAL flushed to the OS on every append, no fsync (live default)"
	}

	liveDir, err := filepath.Abs(filepath.Join(workdir, "live", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(liveDir)
	spec := sysSpec{fragments: w.fragments, seed: seed, live: w.live, cluster: w.cluster, liveDir: liveDir}

	// Build the system several times; set-up time is the median, and the
	// last build, on the run seed's corpus, is the one measured.
	var setups []float64
	stageRuns := map[string][]float64{}
	var sys *system
	builds := maxBuilds
	for k := 0; k < builds; k++ {
		if err := os.RemoveAll(liveDir); err != nil {
			return nil, err
		}
		bs := spec
		if k < builds-1 {
			bs.seed = seededRNG(seed, int64(10+k)).Int63()
		}
		s, err := build(ctx, bs)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		setups = append(setups, s.setupS)
		for name, v := range s.stages {
			stageRuns[name] = append(stageRuns[name], v)
		}
		if k == 0 {
			builds = min(maxBuilds, max(minBuilds, int(math.Ceil(setupBudgetS/s.setupS))))
		}
		if k < builds-1 {
			s.close()
			runtime.GC()
			continue
		}
		sys = s
	}
	defer func() { sys.close() }()
	res.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("median of builds %.3f", setups))

	h := &harness{w: w, seed: seed, sys: sys, chk: &checker{}, res: res, log: &writeLog{}}
	h.base = sys.t.InstanceStats().Count
	h.chk.floor.Store(h.base)
	var groups []keyGroup
	if w.name == "hot_reads" {
		groups = hotGroups()
		if h.golden, err = goldenBodies(sys.t, groups); err != nil {
			return nil, err
		}
	} else {
		if groups, err = wideGroups(ctx, sys.t); err != nil {
			return nil, err
		}
		if w.writers > 0 {
			groups = groups[:2] // the read-back: lookups by name and shows
		}
	}
	h.keys = newKeySpace(groups, seededRNG(seed, 1))
	res.meta["read_keys"] = h.keys.size()
	h.mix = seededRNG(seed, 2)
	if w.live {
		h.pool = newWritePool(sys.t, seed)
	}
	// The generator never holds more than nproc connections: closed-loop
	// writers get one each, and the reads share the rest.
	readConns := runtime.NumCPU()
	if w.writers > 0 {
		readConns = max(1, readConns-w.writers)
		var whc *http.Client
		whc, h.wtr = newHTTPClient(w.writers, nil)
		defer h.wtr.CloseIdleConnections()
		h.wsdk = newSDK(sys.url, whc)
	}
	h.hc, h.tr = newHTTPClient(readConns, func(rt http.RoundTripper) http.RoundTripper {
		return &checkTransport{next: rt, golden: h.golden}
	})
	defer h.tr.CloseIdleConnections()
	h.sdk = newSDK(sys.url, h.hc)

	if w.writers > 0 {
		err = h.runIngest(ctx, dur, traced)
	} else {
		err = h.runReads(ctx, dur, traced)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range stageRuns {
		if traced {
			res.layer = append(res.layer, metric{name: name, value: median(v), unit: "s"})
		}
	}
	if traced {
		for _, name := range []string{"setup.ingest_webtext_s", "setup.import_ftables_s", "setup.consolidate_s", "setup.live_open_s", "setup.node_start_s"} {
			if _, ok := stageRuns[name]; !ok {
				res.layer = append(res.layer, metric{name: name, value: 0, unit: "s"})
			}
		}
		sortMetrics(res.layer)
	}
	if n := h.chk.problems.Load(); n > 0 {
		res.correct = false
		res.problem = h.chk.first
	}
	return res, nil
}

// plan deals n operations: in every block of 1/writeShare operations
// exactly one, at a position the seed picks, is a write, so every run
// offers the same number of writes; the rest are reads from the key space.
func (h *harness) plan(n int, writeShare float64) []planned {
	ops := make([]planned, n)
	block := 0
	if writeShare > 0 {
		block = int(math.Round(1 / writeShare))
	}
	at := -1
	for i := range ops {
		if block > 0 && i%block == 0 {
			at = i + h.mix.Intn(block)
		}
		if i == at {
			ops[i].write = true
		} else {
			ops[i].key = h.keys.next()
		}
	}
	return ops
}

// phase runs one open-loop phase of the workload's mix at rate.
func (h *harness) phase(ctx context.Context, sdk *client.Client, rate float64, dur time.Duration, writeShare float64, pr *probe, rec *recorder) phaseResult {
	ops := h.plan(int(rate*dur.Seconds()), writeShare)
	states := make([]opState, len(ops))
	p := openLoop(ctx, rate, dur, func(ctx context.Context, i int) (bool, error) {
		if ops[i].write {
			return true, write(ctx, sdk, h.pool, h.log, pr, i, 2, 5, time.Time{})
		}
		return false, read(ctx, sdk, h.chk, ops[i].key, &states[i])
	}, rec)
	// Reads are in schedule order, so they pair up with the planned reads.
	p.routes = map[string]*routeSample{}
	j := 0
	for i, op := range ops {
		if op.write {
			continue
		}
		r := p.routes[op.key.route]
		if r == nil {
			r = &routeSample{}
			p.routes[op.key.route] = r
		}
		r.ms = append(r.ms, p.reads[j])
		if c := states[i].cache; c == "HIT" || c == "REVALIDATED" {
			r.hits++
		}
		j++
	}
	return p
}

func (h *harness) count(p phaseResult) {
	h.res.attempted += p.attempted
	h.res.failed += p.failed
}

// addLatency reports a latency sample as its median and a tail percentile.
func (h *harness) addLatency(prefix string, samples []float64, tailQ float64) {
	d := summarize(samples)
	h.res.add(prefix+"_p50_ms", d.p50, "ms", d.n, "")
	name := fmt.Sprintf("%s_p%g_ms", prefix, tailQ*100)
	note := ""
	if float64(d.n)*(1-tailQ) < 10 {
		note = "sample too small; reporting " + d.label(tailQ)
	}
	h.res.add(name, d.at(tailQ), "ms", d.n, note)
}

// addRoutes reports each route's share of the reads, its median and its
// cache hits, so the table shows which routes the pooled median is made of.
func (h *harness) addRoutes(p phaseResult) {
	names := make([]string, 0, len(p.routes))
	for name := range p.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := p.routes[name]
		d := summarize(r.ms)
		h.res.add("read_p50_ms."+name, d.p50, "ms", d.n,
			fmt.Sprintf("%.0f%% of reads, %d cache hits", 100*float64(d.n)/math.Max(1, float64(len(p.reads))), r.hits))
	}
}

// runReads drives hot_reads and cluster_mixed: warm-up, the
// nominal-rate phase, then the capacity ladder (untraced) or the traced
// phase.
func (h *harness) runReads(ctx context.Context, dur time.Duration, traced bool) error {
	w := h.w
	h.count(h.phase(ctx, h.sdk, w.rate, time.Second, w.writeShare, nil, nil))

	nominal := time.Duration(float64(dur) * 0.8)
	if traced {
		nominal = dur / 2
	}
	var pr *probe
	if w.live {
		pr = startProbe(ctx, h.sys.t)
	}
	p := h.phase(ctx, h.sdk, w.rate, nominal, w.writeShare, pr, nil)
	h.count(p)
	var fresh []float64
	if pr != nil {
		// Writes still queued when the phase ends count too: the probe
		// keeps watching through the Flush that applies them.
		if err := h.sys.ing.Flush(ctx); err != nil {
			return err
		}
		fresh = pr.finish(ctx)
	}
	h.addLatency("read", p.reads, 0.99)
	h.addRoutes(p)
	if !traced {
		h.res.add("heap_live_mb", heapLiveMB(), "MB", 0, "after forced GC")
	}
	if w.live {
		h.addLatency("write", p.writes, 0.99)
		fd := summarize(fresh)
		h.res.add("fresh_p50_ms", fd.p50, "ms", fd.n, "")
		h.res.add("fresh_p90_ms", fd.at(0.9), "ms", fd.n, "")
	}
	h.res.add("gen_late_p99_ms", summarize(p.late).at(0.99), "ms", len(p.late), fmt.Sprintf("generator lateness, p50 %.3f ms", summarize(p.late).p50))

	if traced {
		if err := h.tracedPhase(ctx, dur/2, p); err != nil {
			return err
		}
	} else {
		h.ladder(ctx, dur-nominal, p)
	}
	if w.live {
		if err := h.sys.ing.Flush(ctx); err != nil {
			return err
		}
		if err := reconcile(ctx, h.sys.t, h.base, h.log, h.pool); err != nil {
			h.chk.fail("%v", err)
		}
	}
	h.res.add("error_ratio", float64(h.res.failed)/math.Max(1, float64(h.res.attempted)), "ratio", int(h.res.attempted), "")
	return nil
}

// ladder reports the highest offered rate, the nominal phase first and
// then each rung in turn, whose read p99 stays under the workload's limit
// with no failures and no growing backlog. Rungs run beyond the nominal
// rate, so their failures disqualify the rung rather than count against
// the run.
func (h *harness) ladder(ctx context.Context, total time.Duration, nominal phaseResult) {
	w := h.w
	rung := total / time.Duration(len(w.ladder))
	var capacity float64
	var notes []string
	ok := func(rate float64, p phaseResult) bool {
		d := summarize(p.reads)
		tail := d.at(0.99)
		notes = append(notes, fmt.Sprintf("%g:%s=%.1f,failed=%d,backlog=%v", rate, d.label(0.99), tail, p.failed, p.backlog))
		return p.failed == 0 && !p.backlog && tail <= w.limitMs
	}
	if ok(w.rate, nominal) {
		capacity = w.rate
		for _, rate := range w.ladder {
			if !ok(rate, h.phase(ctx, h.sdk, rate, rung, w.writeShare, nil, nil)) {
				break
			}
			capacity = rate
		}
	}
	h.res.add("capacity_rps", capacity, "1/s", 0, strings.Join(notes, " "))
}

// streamFragments is the write volume of ingest_stream. A fixed volume,
// rather than a fixed time, keeps the grown store, the live heap and the
// recovery work the same from run to run; ingest_frag_per_s is measured
// over it.
const streamFragments = 8000

// runIngest drives ingest_stream: closed-loop writers until they have sent
// streamFragments fragments (capped at a quarter of the measured time), a
// final Flush, an open-loop read-back of the grown store for half the
// measured time, reconciliation, and kill-state recovery. The writers
// saturate the applier, so reads during the stream would measure lock and
// CPU starvation rather than the read path; they are measured after it.
func (h *harness) runIngest(ctx context.Context, dur time.Duration, traced bool) error {
	sys := h.sys
	streamCap := dur / 4
	readDur := dur / 2
	diskBefore := dirBytes(sys.spec.liveDir)

	// On the traced run the stream and the first read-back are traced; a
	// second, untraced read-back of the same data gives the overhead.
	var tc *traceRun
	wsdk := h.wsdk
	if traced {
		var err error
		if tc, err = h.startTrace(ctx); err != nil {
			return err
		}
		wsdk = tc.sdk
	}
	start := time.Now()
	pr := startProbe(ctx, sys.t)
	writes := h.stream(ctx, wsdk, streamFragments, streamCap, pr, tc.recorder())
	if tc != nil {
		tc.before.stopSample()
	}
	flushStart := time.Now()
	if err := sys.ing.Flush(ctx); err != nil {
		return err
	}
	flushMs := ms(time.Since(flushStart))
	elapsed := time.Since(start)
	fresh := pr.finish(ctx)
	h.count(writes)

	h.log.mu.Lock()
	frags, payload, writeLat := h.log.frags, h.log.payload, append([]float64(nil), h.log.writeLat...)
	h.log.mu.Unlock()
	h.addLatency("write", writeLat, 0.99)
	h.res.add("ingest_frag_per_s", float64(frags)/elapsed.Seconds(), "1/s", int(frags), "acked and applied, first send to Flush return")
	fd := summarize(fresh)
	h.res.add("fresh_p50_ms", fd.p50, "ms", fd.n, "")
	h.res.add("fresh_p90_ms", fd.at(0.9), "ms", fd.n, "")
	h.res.add("disk_per_input_byte", float64(dirBytes(sys.spec.liveDir)-diskBefore)/math.Max(1, float64(payload)), "ratio", 0, "flush without fsync")
	h.res.add("live_flush_ms", flushMs, "ms", 0, "")

	var traced1 phaseResult
	if tc != nil {
		traced1 = h.phase(ctx, tc.sdk, h.w.readRate, readDur, 0, nil, tc.rec)
		h.count(traced1)
		tc.before.flushMs = flushMs
		if err := tc.finish(h); err != nil {
			return err
		}
	}
	reads := h.phase(ctx, h.sdk, h.w.readRate, readDur, 0, nil, nil)
	h.count(reads)
	h.addLatency("read", reads.reads, 0.99)
	h.addRoutes(reads)
	h.res.add("gen_late_p99_ms", summarize(reads.late).at(0.99), "ms", len(reads.late), fmt.Sprintf("read-back generator lateness, p50 %.3f ms", summarize(reads.late).p50))
	if tc != nil {
		h.res.layer = h.layers(tc.rec, tc.hs, tc.tt, traced1, reads, tc.before, tc.after)
	} else {
		h.res.add("heap_live_mb", heapLiveMB(), "MB", 0, "after forced GC")
	}

	if err := reconcile(ctx, sys.t, h.base, h.log, h.pool); err != nil {
		h.chk.fail("%v", err)
	}
	rec, err := h.recover(ctx)
	if err != nil {
		return err
	}
	if tc != nil {
		setLayer(h.res.layer, "live.replay_applied", float64(rec.replayed))
	} else {
		h.res.add("recovery_s", rec.seconds, "s", rec.tail, "reopen until every acked write is readable")
	}
	h.res.add("error_ratio", float64(h.res.failed)/math.Max(1, float64(h.res.attempted)), "ratio", int(h.res.attempted), "")
	return nil
}

// stream runs the closed-loop writers until frags fragments have been
// sent or maxDur has passed. Each writer sends its next batch as soon as
// the last one is acked: four text batches of eight fragments, then one
// record for a new show.
func (h *harness) stream(ctx context.Context, wsdk *client.Client, frags int64, maxDur time.Duration, pr *probe, rec *recorder) phaseResult {
	var wg sync.WaitGroup
	var res phaseResult
	var mu sync.Mutex
	deadline := time.Now().Add(maxDur)
	stop := h.pool.next.Load() + frags
	for wr := 0; wr < h.w.writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			var attempted, failed int64
			for i := wr; h.pool.next.Load() < stop && time.Now().Before(deadline); i += h.w.writers {
				c := ctx
				var sp *span
				if rec != nil {
					c, sp = rec.root(c, "gen.write")
				}
				attempted++
				if err := write(c, wsdk, h.pool, h.log, pr, i, 8, 5, time.Now()); err != nil {
					failed++
					h.chk.fail("write: %v", err)
				}
				if sp != nil {
					rec.end(sp)
				}
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}(wr)
	}
	wg.Wait()
	return res
}

// recovery is what kill-state recovery measured.
type recovery struct {
	seconds  float64
	tail     int
	replayed int
}

// recover checkpoints, sends a fixed tail of writes, kills the ingester
// without its closing checkpoint, and reopens the live directory in a
// fresh pipeline, timing until every acknowledged write is readable.
func (h *harness) recover(ctx context.Context) (recovery, error) {
	sys := h.sys
	if err := sys.ing.Checkpoint(ctx); err != nil {
		return recovery{}, fmt.Errorf("checkpoint: %w", err)
	}
	tail := &writeLog{}
	const tailWrites = 200
	for i := 0; i < tailWrites; i++ {
		if err := write(ctx, h.wsdk, h.pool, tail, nil, i, 8, 5, time.Time{}); err != nil {
			return recovery{}, fmt.Errorf("tail write: %w", err)
		}
	}
	h.log.mu.Lock()
	h.log.acked = append(h.log.acked, tail.acked...)
	h.log.frags += tail.frags
	h.log.mu.Unlock()
	sys.close() // stops the listener and kills the ingester
	sys.t = nil // let the killed pipeline go before the reopened one loads
	runtime.GC()

	start := time.Now()
	t := core.New(core.Config{Fragments: sys.spec.fragments, Seed: sys.spec.seed})
	if err := t.ImportFTables(ctx); err != nil {
		return recovery{}, err
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	ing, err := live.Open(ictx, t, live.Config{Dir: sys.spec.liveDir})
	if err != nil {
		return recovery{}, fmt.Errorf("reopen: %w", err)
	}
	defer func() {
		cancel()
		_ = ing.Close()
	}()
	if err := reconcile(ctx, t, h.base, h.log, h.pool); err != nil {
		h.chk.fail("after recovery: %v", err)
	}
	return recovery{seconds: time.Since(start).Seconds(), tail: tailWrites, replayed: ing.Stats().ReplayApplied}, nil
}

// installTracing swaps in the traced seams: store routers over traced
// shard backends, a handler over traced Querier and Ingestor, and a new
// SDK client whose transport records client spans. It returns the SDK
// client and a function that puts the untraced stores and handler back.
//
// Core.SetStores must not race the pipeline, so both swaps happen between
// phases, with no request in flight, after a Flush has drained the live
// applier.
func (h *harness) installTracing(ctx context.Context, rec *recorder, hs *handlerStats, tt *tracingTransport) (*client.Client, func() error, error) {
	sys := h.sys
	if sys.ing != nil {
		if err := sys.ing.Flush(ctx); err != nil {
			return nil, nil, err
		}
	}
	origInst, origEnt := sys.t.Instances, sys.t.Entities
	inst, err := traceSharded(rec, origInst)
	if err != nil {
		return nil, nil, err
	}
	ent, err := traceSharded(rec, origEnt)
	if err != nil {
		return nil, nil, err
	}
	sys.t.SetStores(inst, ent)
	var ing = sys.ingestor()
	if ing != nil {
		ing = tracedIngestor{rec: rec, ing: ing}
	}
	sys.setHandler(traceHandler(rec, hs, sys.newServer(tracedQuerier{rec: rec, q: sys.t}, ing)))
	hc := &http.Client{Timeout: h.hc.Timeout, Transport: &checkTransport{next: tt, golden: h.golden}}
	tt.next = h.tr
	if h.wtr != nil {
		tt.post = h.wtr
	}
	restore := func() error {
		if sys.ing != nil {
			if err := sys.ing.Flush(ctx); err != nil {
				return err
			}
		}
		sys.t.SetStores(origInst, origEnt)
		sys.setHandler(sys.plain)
		return nil
	}
	return newSDK(sys.url, hc), restore, nil
}
