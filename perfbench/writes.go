package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/datagen"
)

// writePool makes the write stream: text fragments that mention shows
// (each parses to at least one entity, so the freshness probe can see it)
// and structured records for new shows.
type writePool struct {
	seed  int64
	texts []string
	next  atomic.Int64 // fragments handed out
	shows atomic.Int64 // new shows handed out
}

func newWritePool(t *core.Tamer, seed int64) *writePool {
	p := &writePool{seed: seed}
	for _, f := range datagen.GenerateWebText(datagen.WebTextConfig{Fragments: 3000, Seed: seed + 7919, Gazetteer: t.Parser.Gazetteer()}) {
		if len(t.Parser.Parse(f.Text).Entities) > 0 {
			p.texts = append(p.texts, f.Text)
		}
	}
	return p
}

// fragments returns n fragments with URLs no other write uses.
func (p *writePool) fragments(n int) []client.Fragment {
	out := make([]client.Fragment, n)
	for i := range out {
		k := p.next.Add(1)
		out[i] = client.Fragment{
			URL:  fmt.Sprintf("http://bench.example.com/live/%d/%d", p.seed, k),
			Text: p.texts[int(k)%len(p.texts)],
		}
	}
	return out
}

// show returns the name of a show no earlier write used. Dedup blocks on
// the first four characters of SHOW_NAME and on the initials of its words,
// so a one-word name with a distinct four-character base-36 prefix keeps
// every new show in a block of its own.
func (p *writePool) show() string {
	id := strconv.FormatInt(p.shows.Add(1), 36)
	return strings.Repeat("0", max(0, 4-len(id))) + id + "revue"
}

// ackedWrite is one acknowledged write the probe and reconcile look for.
type ackedWrite struct {
	url   string // text write: one of its fragment URLs
	show  string // record write: the new show
	frags int
	at    time.Time
}

// writeLog records acknowledged writes and their payload sizes.
type writeLog struct {
	mu       sync.Mutex
	acked    []ackedWrite
	frags    int64
	payload  int64
	writeLat []float64
}

func (l *writeLog) add(w ackedWrite, payload int, lat float64) {
	l.mu.Lock()
	l.acked = append(l.acked, w)
	l.frags += int64(w.frags)
	l.payload += int64(payload)
	if lat >= 0 {
		l.writeLat = append(l.writeLat, lat)
	}
	l.mu.Unlock()
}

func (l *writeLog) snapshot() []ackedWrite {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ackedWrite(nil), l.acked...)
}

// write sends one write through the SDK: a batch of text fragments, or
// every recordEvery-th call a record for a new show. On its 202 the write
// is logged and handed to the probe.
func write(ctx context.Context, c *client.Client, pool *writePool, log *writeLog, pr *probe, i, textBatch, recordEvery int, due time.Time) error {
	var w ackedWrite
	var payload int
	var err error
	if recordEvery > 0 && i%recordEvery == recordEvery-1 {
		w.show = pool.show()
		rec := map[string]any{"SHOW_NAME": w.show, "THEATER": "Bench Theatre " + strconv.Itoa(i%97), "CHEAPEST_PRICE": 20 + i%60}
		payload = len(w.show) + 40
		_, err = c.IngestRecords(ctx, "bench_feed", []map[string]any{rec})
	} else {
		frags := pool.fragments(textBatch)
		for _, f := range frags {
			payload += len(f.URL) + len(f.Text)
		}
		w.url, w.frags = frags[len(frags)-1].URL, len(frags)
		var n int
		if n, err = c.IngestText(ctx, frags); err == nil && n != len(frags) {
			err = fmt.Errorf("ingest text: %d of %d fragments accepted", n, len(frags))
		}
	}
	if err != nil {
		return err
	}
	w.at = time.Now()
	lat := -1.0
	if !due.IsZero() {
		lat = ms(w.at.Sub(due))
	}
	log.add(w, payload, lat)
	if pr != nil {
		pr.watch(w)
	}
	return nil
}

// visible reports whether an in-process public read sees the write.
func visible(ctx context.Context, t *core.Tamer, w ackedWrite) (bool, error) {
	if w.show != "" {
		return t.ShowInFused(ctx, w.show)
	}
	docs, err := t.FindEntities(ctx, fmt.Sprintf("source_url = %q", w.url))
	return len(docs) > 0, err
}

// probe measures freshness: the time from a write's 202 until an
// in-process read sees it. Writes apply in log order, so it checks the
// oldest unseen write first and stops at the first one still invisible.
// A write becomes visible only with a data-generation bump, so the probe
// reads the generation every millisecond and queries only after it moved:
// polling the stores on every tick would load the very system it measures.
type probe struct {
	t       *core.Tamer
	seen    atomic.Uint64 // the generation last polled; 0 forces a poll
	mu      sync.Mutex
	pending []ackedWrite
	fresh   []float64
	stop    chan struct{}
	done    chan struct{}
}

// probeCtx marks the probe's own reads so the span analysis can tell them
// from live-applier work: they carry a parent that is no recorded span.
func probeCtx(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, active{id: ^uint64(0)})
}

func startProbe(ctx context.Context, t *core.Tamer) *probe {
	p := &probe{t: t, stop: make(chan struct{}), done: make(chan struct{})}
	ctx = probeCtx(ctx)
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if gen := t.DataGeneration(); p.seen.Swap(gen) != gen {
					p.poll(ctx)
				}
			}
		}
	}()
	return p
}

// watch queues an acknowledged write. The generation may have moved past
// its apply before the write was queued, so the next tick polls regardless.
func (p *probe) watch(w ackedWrite) {
	p.mu.Lock()
	p.pending = append(p.pending, w)
	p.mu.Unlock()
	p.seen.Store(0)
}

func (p *probe) poll(ctx context.Context) {
	for {
		p.mu.Lock()
		if len(p.pending) == 0 {
			p.mu.Unlock()
			return
		}
		w := p.pending[0]
		p.mu.Unlock()
		ok, err := visible(ctx, p.t, w)
		if err != nil || !ok {
			return
		}
		now := time.Now()
		p.mu.Lock()
		p.pending = p.pending[1:]
		p.fresh = append(p.fresh, ms(now.Sub(w.at)))
		p.mu.Unlock()
	}
}

// finish stops the probe after a last poll and returns the freshness sample.
func (p *probe) finish(ctx context.Context) []float64 {
	close(p.stop)
	<-p.done
	p.poll(probeCtx(ctx))
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fresh
}

// reconcile checks, after a Flush, that every acknowledged write is
// visible and that the instance count lies between the base count plus
// the acknowledged fragments and the base count plus every fragment the
// pool handed out. A write the handler enqueued but whose 202 never
// arrived (a ladder rung cancels what is still in flight when its backlog
// does not drain) is applied without being logged as acknowledged, so the
// count may exceed the acknowledged total, never the sent one.
func reconcile(ctx context.Context, t *core.Tamer, base int64, log *writeLog, pool *writePool) error {
	st, err := t.InstanceStatsCtx(ctx)
	if err != nil {
		return err
	}
	log.mu.Lock()
	acked := log.frags
	log.mu.Unlock()
	sent := pool.next.Load()
	if st.Count < base+acked || st.Count > base+sent {
		return fmt.Errorf("reconcile: %d instances, want base %d + between %d acknowledged and %d sent fragments", st.Count, base, acked, sent)
	}
	for _, w := range log.snapshot() {
		ok, err := visible(ctx, t, w)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("reconcile: acknowledged write %q%q not visible", w.url, w.show)
		}
	}
	return nil
}
