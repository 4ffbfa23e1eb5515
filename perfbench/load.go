package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/fuse"
	"repro/internal/serve"
)

// ---- read keys -----------------------------------------------------------------

// readKey is one /v1 read the generator can send.
type readKey struct {
	route         string // stats, types, top, cheapest, find, show
	arg           string // the find query or the show name
	limit, offset int
}

// uri is the request URI exactly as the SDK encodes it, which is how
// golden bodies are looked up.
func (k readKey) uri() string {
	v := url.Values{}
	if k.limit > 0 {
		v.Set("limit", strconv.Itoa(k.limit))
	}
	if k.offset > 0 {
		v.Set("offset", strconv.Itoa(k.offset))
	}
	switch k.route {
	case "find":
		v.Set("q", k.arg)
	case "show":
		v.Set("name", k.arg)
	}
	u := "/v1/" + k.route
	if len(v) > 0 {
		u += "?" + v.Encode()
	}
	return u
}

// keyGroup is one class of reads: its share of the mix, and its keys in a
// fixed order, most popular first.
type keyGroup struct {
	name  string
	share float64
	keys  []readKey
	// flatten is the Zipf v parameter: P(k) is proportional to
	// (flatten+k)^-1.1, so 1 is the steepest head and larger values
	// spread draws over more keys.
	flatten float64
}

// keySpace deals reads from a deck: each deck holds every group in
// exact proportion to its share, in an order the seed shuffles, and
// within a group a key is drawn Zipf-skewed. Dealing rather than drawing
// the group keeps the number of expensive reads in a run fixed, so runs
// differ in which keys they read and when, not in how much work they
// offer. The key order is fixed by the corpus, not by the seed: every
// seed offers the same mix of cheap and expensive reads.
type keySpace struct {
	groups []keyGroup
	zipfs  []*rand.Zipf
	rng    *rand.Rand
	deck   []int // group indices still to deal
	counts []int // each group's cards in a full deck
}

func newKeySpace(groups []keyGroup, rng *rand.Rand) *keySpace {
	ks := &keySpace{rng: rng}
	var least float64
	for _, g := range groups {
		if len(g.keys) == 0 {
			continue
		}
		ks.groups = append(ks.groups, g)
		ks.zipfs = append(ks.zipfs, rand.NewZipf(rng, 1.1, g.flatten, uint64(len(g.keys)-1)))
		if least == 0 || g.share < least {
			least = g.share
		}
	}
	// The smallest group gets one card per deck.
	for _, g := range ks.groups {
		ks.counts = append(ks.counts, max(1, int(math.Round(g.share/least))))
	}
	return ks
}

func (ks *keySpace) next() readKey {
	if len(ks.deck) == 0 {
		for gi, n := range ks.counts {
			for range n {
				ks.deck = append(ks.deck, gi)
			}
		}
		ks.rng.Shuffle(len(ks.deck), func(i, j int) { ks.deck[i], ks.deck[j] = ks.deck[j], ks.deck[i] })
	}
	gi := ks.deck[len(ks.deck)-1]
	ks.deck = ks.deck[:len(ks.deck)-1]
	return ks.groups[gi].keys[ks.zipfs[gi].Uint64()]
}

func (ks *keySpace) size() int {
	n := 0
	for _, g := range ks.groups {
		n += len(g.keys)
	}
	return n
}

// hotGroups is the small key set of hot_reads: every route, first page
// only, the Table IV shows and a handful of filters. The routes are drawn
// uniformly, as cmd/dtload draws them.
func hotGroups() []keyGroup {
	shows := []readKey{{route: "show", arg: "Matilda"}}
	for _, show := range extract.TableIVShows {
		if show != "Matilda" {
			shows = append(shows, readKey{route: "show", arg: show})
		}
	}
	var finds []readKey
	for _, q := range []string{
		"type = Movie",
		"attributes.award_winning = true",
		`name = "Matilda"`,
		"type = Theater",
		"type = Movie AND attributes.award_winning = true",
	} {
		finds = append(finds, readKey{route: "find", arg: q})
	}
	const route = 1.0 / 6
	return []keyGroup{
		{name: "find", share: route, keys: finds, flatten: 1},
		{name: "show", share: route, keys: shows, flatten: 1},
		{name: "stats", share: route, keys: []readKey{{route: "stats"}}, flatten: 1},
		{name: "types", share: route, keys: []readKey{{route: "types"}}, flatten: 1},
		{name: "top", share: route, keys: []readKey{{route: "top"}}, flatten: 1},
		{name: "cheapest", share: route, keys: []readKey{{route: "cheapest"}}, flatten: 1},
	}
}

// wideGroups is the key space of the live workloads: every entity name,
// every show, every type with paged offsets, award filters, a few contains
// queries, and the paged aggregate routes.
func wideGroups(ctx context.Context, t *core.Tamer) ([]keyGroup, error) {
	names, err := t.Entities.DistinctCtx(ctx, "name")
	if err != nil {
		return nil, err
	}
	types, err := t.EntityTypeCounts(ctx)
	if err != nil {
		return nil, err
	}
	byCount := make([]string, 0, len(names))
	for n := range names {
		byCount = append(byCount, n)
	}
	sort.Slice(byCount, func(i, j int) bool {
		a, b := byCount[i], byCount[j]
		return names[a] > names[b] || (names[a] == names[b] && a < b)
	})
	var findName, shows, findType, award []readKey
	for _, n := range byCount {
		findName = append(findName, readKey{route: "find", arg: fmt.Sprintf("name = %q", n)})
	}
	for _, n := range showNames(ctx, t, byCount) {
		shows = append(shows, readKey{route: "show", arg: n})
	}
	for off := 0; off < 100; off += 20 {
		for _, tc := range types {
			findType = append(findType, readKey{route: "find", arg: "type = " + tc.Type, limit: 20, offset: off})
		}
	}
	for off := 0; off < 50; off += 10 {
		award = append(award, readKey{route: "find", arg: "attributes.award_winning = true", offset: off})
	}
	var contains []readKey
	for _, w := range []string{"the", "walking", "new", "park"} {
		contains = append(contains, readKey{route: "find", arg: "name ~ " + w})
	}
	// Every ranking route pages through its first 50 entries.
	var typePages, top, cheapest []readKey
	for off := 0; off < 50; off += 5 {
		typePages = append(typePages, readKey{route: "types", limit: 5, offset: off})
		top = append(top, readKey{route: "top", limit: 5, offset: off})
		cheapest = append(cheapest, readKey{route: "cheapest", limit: 5, offset: off})
	}
	// Nearly every read is a lookup by name, 80 of a find to 10 of a show:
	// the paper's query (Table V/VI) is a lookup of one show's enriched
	// record. The seven other kinds of query are a trickle, about one
	// read in 50 between them, drawn evenly as cmd/dtload draws its
	// routes: often enough to reach read_p99_ms and the per-layer figures,
	// rarely enough that the median stays a lookup rather than a count of
	// the lookups that waited behind a 10-150 ms aggregate on the other
	// connection. These shares are an assumption; see README.md.
	const other = 0.25
	return []keyGroup{
		{name: "find_name", share: 80, keys: findName, flatten: 100},
		{name: "show", share: 10, keys: shows, flatten: 100},
		{name: "find_type", share: other, keys: findType, flatten: 1},
		{name: "find_award", share: other, keys: award, flatten: 1},
		{name: "find_contains", share: other, keys: contains, flatten: 1},
		{name: "stats", share: other, keys: []readKey{{route: "stats"}}, flatten: 1},
		{name: "types", share: other, keys: typePages, flatten: 1},
		{name: "top", share: other, keys: top, flatten: 1},
		{name: "cheapest", share: other, keys: cheapest, flatten: 1},
	}, nil
}

// showNames lists, most mentioned first, the Movie entities /v1/show
// answers for with text evidence.
func showNames(ctx context.Context, t *core.Tamer, byCount []string) []string {
	docs, err := t.FindEntities(ctx, "type = Movie")
	if err != nil {
		return nil
	}
	movie := map[string]bool{}
	for _, d := range docs {
		if name, ok := d.Get("name"); ok {
			movie[name.String()] = true
		}
	}
	var out []string
	for _, n := range byCount {
		if !movie[n] {
			continue
		}
		if web, _, err := t.QueryShow(ctx, n); err == nil && web.Has("TEXT_FEED") {
			out = append(out, n)
		}
	}
	return out
}

// goldenBodies renders every key through a cache-off in-process handler.
func goldenBodies(t *core.Tamer, groups []keyGroup) (map[string][]byte, error) {
	h := serve.New(t, serve.WithCacheBytes(-1))
	out := map[string][]byte{}
	for _, g := range groups {
		for _, k := range g.keys {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, k.uri(), nil))
			if rr.Code != http.StatusOK {
				return nil, fmt.Errorf("golden %s: HTTP %d", k.uri(), rr.Code)
			}
			out[k.uri()] = rr.Body.Bytes()
		}
	}
	return out, nil
}

// ---- correctness -----------------------------------------------------------------

type opStateKey struct{}

// opState collects what the checking transport saw for one operation.
type opState struct {
	degraded, mismatch bool
	cache              string // X-Cache of the last response
}

// checkTransport sits under the SDK: it flags degraded responses and, when
// golden bodies are set, compares every 200 body byte for byte.
type checkTransport struct {
	next   http.RoundTripper
	golden map[string][]byte
}

func (c *checkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	st, _ := req.Context().Value(opStateKey{}).(*opState)
	if st == nil {
		return resp, nil
	}
	if resp.Header.Get("X-DT-Degraded") != "" {
		st.degraded = true
	}
	st.cache = resp.Header.Get("X-Cache")
	if c.golden != nil && req.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if want, ok := c.golden[req.URL.RequestURI()]; !ok || !bytes.Equal(body, want) {
			st.mismatch = true
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp, nil
}

// checker validates decoded responses on runs where writes change the
// data, so no golden body exists: envelopes, paging and monotone counts.
type checker struct {
	// floor is the highest instance count any completed response showed;
	// a request sent after that completion must see at least as many.
	floor    atomic.Int64
	problems atomic.Int64
	mu       sync.Mutex
	first    string
}

func (c *checker) fail(format string, args ...any) error {
	c.problems.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	if c.first == "" {
		c.first = msg
	}
	c.mu.Unlock()
	if c.problems.Load() <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	return fmt.Errorf("%s", msg)
}

func checkPage[T any](c *checker, k readKey, l client.List[T]) error {
	wantLimit := k.limit
	if wantLimit == 0 {
		wantLimit = map[string]int{"types": 50}[k.route]
		if wantLimit == 0 {
			wantLimit = 10
		}
	}
	if l.Limit != wantLimit || l.Offset != min(k.offset, l.Total) || len(l.Items) > l.Limit ||
		(l.Offset < l.Total && len(l.Items) != min(l.Limit, l.Total-l.Offset)) {
		return c.fail("%s: bad page limit=%d offset=%d items=%d total=%d", k.uri(), l.Limit, l.Offset, len(l.Items), l.Total)
	}
	return nil
}

// read sends one read through the SDK and checks what came back; st
// receives what the checking transport saw.
func read(ctx context.Context, c *client.Client, chk *checker, k readKey, st *opState) error {
	ctx = context.WithValue(ctx, opStateKey{}, st)
	floor := chk.floor.Load()
	var err error
	switch k.route {
	case "stats":
		var s client.Stats
		if s, err = c.Stats(ctx); err == nil {
			if s.Instance.Count < floor || s.Instance.NS != "dt.instance" || s.Entity.Count == 0 {
				err = chk.fail("stats: instance count %d below %d seen earlier", s.Instance.Count, floor)
			}
			for cur := chk.floor.Load(); s.Instance.Count > cur && !chk.floor.CompareAndSwap(cur, s.Instance.Count); cur = chk.floor.Load() {
			}
		}
	case "types":
		var l client.List[client.TypeCount]
		if l, err = c.Types(ctx, client.Page{Limit: k.limit, Offset: k.offset}); err == nil {
			err = checkPage(chk, k, l)
		}
	case "top":
		var l client.List[client.Discussed]
		if l, err = c.Top(ctx, client.Page{Limit: k.limit, Offset: k.offset}); err == nil {
			err = checkPage(chk, k, l)
		}
	case "cheapest":
		var l client.List[client.PricedShow]
		if l, err = c.Cheapest(ctx, client.Page{Limit: k.limit, Offset: k.offset}); err == nil {
			err = checkPage(chk, k, l)
		}
	case "find":
		var l client.List[client.Entity]
		if l, err = c.Find(ctx, k.arg, client.Page{Limit: k.limit, Offset: k.offset}); err == nil {
			err = checkPage(chk, k, l)
		}
	case "show":
		var v client.ShowView
		if v, err = c.Show(ctx, k.arg); err == nil {
			switch {
			case v.WebText["TEXT_FEED"] == "":
				err = chk.fail("show %q: no TEXT_FEED", k.arg)
			case k.arg == "Matilda":
				for _, f := range fuse.TableVIOrder { // the paper's Table VI attributes
					if v.Fused[f] == "" {
						err = chk.fail("show Matilda: fused record lacks Table VI field %s", f)
					}
				}
			}
		}
	}
	if err == nil && st.mismatch {
		err = chk.fail("%s: body differs from the golden body", k.uri())
	}
	if err == nil && st.degraded {
		err = chk.fail("%s: degraded response", k.uri())
	}
	return err
}

// ---- open-loop generator --------------------------------------------------------

// sample is one completed operation.
type sample struct {
	write bool
	ms    float64 // from the due time to the decoded result; +Inf when failed
	late  float64 // how late the generator sent it, ms
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	reads, writes []float64
	late          []float64
	attempted     int64
	failed        int64
	backlog       bool
	routes        map[string]*routeSample // the reads split by route
}

// routeSample is one route's share of a phase's reads.
type routeSample struct {
	ms   []float64
	hits int // responses served from the response cache (X-Cache HIT or REVALIDATED)
}

// opFunc runs operation i and reports whether it was a write.
type opFunc func(ctx context.Context, i int) (write bool, err error)

// maxInFlight bounds the generator's outstanding operations; reaching it
// makes the generator late, which the lateness figures report.
const maxInFlight = 1024

// openLoop sends operations on a fixed-rate schedule for dur and times
// each from its due time, so queueing behind a stall is counted. rec, when
// non-nil, gets a root span per operation starting at its due time.
func openLoop(ctx context.Context, rate float64, dur time.Duration, op opFunc, rec *recorder) phaseResult {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var failed atomic.Int64
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		samples[i].late = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			c := opCtx
			var sp *span
			if rec != nil {
				c, sp = rec.root(c, "gen")
				sp.start = due
			}
			write, err := op(c, i)
			samples[i].write = write
			samples[i].ms = ms(time.Since(due))
			if sp != nil {
				if write {
					sp.name = "gen.write"
				}
				rec.end(sp)
			}
			if err != nil {
				failed.Add(1)
				samples[i].ms = math.Inf(1)
			}
		}(i, due)
	}
	sent := time.Now()
	// A phase that needs more than a few seconds past its schedule to
	// drain has a growing backlog; what is still out is abandoned as failed.
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	res := phaseResult{attempted: int64(n)}
	select {
	case <-drained:
	case <-time.After(3 * time.Second):
		res.backlog = true
		cancel()
		<-drained
	}
	res.failed = failed.Load()
	if time.Since(sent) > time.Second {
		res.backlog = true
	}
	for _, s := range samples {
		if s.write {
			res.writes = append(res.writes, s.ms)
		} else {
			res.reads = append(res.reads, s.ms)
		}
		res.late = append(res.late, s.late)
	}
	// Latency that keeps climbing through the phase is a backlog too.
	if q := len(res.reads) / 4; q >= 20 {
		first, last := summarize(res.reads[:q]), summarize(res.reads[len(res.reads)-q:])
		if last.p50 > 2*first.p50+5 {
			res.backlog = true
		}
	}
	return res
}

// newHTTPClient caps the generator at conns connections to the server.
func newHTTPClient(conns int, wrap func(http.RoundTripper) http.RoundTripper) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, tr
}

// newSDK builds the client SDK the generator drives. Retries are off so
// that sheds and failures count instead of being hidden.
func newSDK(base string, hc *http.Client) *client.Client {
	return client.New(base, client.WithHTTPClient(hc), client.WithRetries(0), client.WithRetryAfterCap(0))
}
