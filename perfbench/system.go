package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sysSpec is the shape of the system a workload runs against.
type sysSpec struct {
	fragments int
	seed      int64
	live      bool
	cluster   bool
	liveDir   string
}

// system is the program assembled in-process from its public packages the
// way dtserver assembles it: the batch pipeline, optionally the live
// ingester and an in-process dtnode Node over loopback TCP, the /v1 serve
// handler on a real loopback listener.
type system struct {
	spec sysSpec
	t    *core.Tamer

	ing       *live.Ingester // nil unless spec.live
	ingCancel context.CancelFunc

	node     *cluster.Node
	nodeLn   *countingListener
	nodeDone chan struct{}
	cl       *cluster.Cluster

	hs       *http.Server
	plain    http.Handler // the untraced serve handler
	handler  atomic.Pointer[http.Handler]
	url      string
	httpDone chan struct{}

	stages map[string]float64 // setup.<stage>_s
	setupS float64
}

// build constructs the system and returns once the listener has accepted
// its first request. setupS covers construction through that request.
func build(ctx context.Context, spec sysSpec) (*system, error) {
	start := time.Now()
	s := &system{spec: spec, stages: map[string]float64{}}
	stage := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		s.stages[name] += time.Since(t0).Seconds()
		return err
	}
	if spec.cluster {
		if err := stage("setup.node_start_s", s.startNode); err != nil {
			s.close()
			return nil, err
		}
	}
	s.t = core.New(core.Config{Fragments: spec.fragments, Seed: spec.seed})
	if s.cl != nil {
		s.t.SetStores(s.cl.Instances, s.cl.Entities)
	}
	steps := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"setup.ingest_webtext_s", s.t.IngestWebText},
		{"setup.import_ftables_s", s.t.ImportFTables},
		{"setup.consolidate_s", s.t.CleanAndConsolidate},
	}
	for _, st := range steps {
		if err := stage(st.name, func() error { return st.fn(ctx) }); err != nil {
			s.close()
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	if spec.live {
		if err := stage("setup.live_open_s", func() error { return s.openLive(ctx, s.t) }); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.listen(s.newServer(s.t, s.ingestor())); err != nil {
		s.close()
		return nil, err
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// startNode hosts every shard of both namespaces on one in-process dtnode
// Node served over loopback TCP, and connects the coordinator to it.
func (s *system) startNode() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cfg := &cluster.Config{Shards: 4, Nodes: []cluster.NodeSpec{
		{Name: "node-a", Addr: ln.Addr().String(), Shards: []int{0, 1, 2, 3}},
	}}
	if err := cfg.Validate(); err != nil {
		ln.Close()
		return err
	}
	s.node = cluster.BuildNode(cfg, &cfg.Nodes[0], false)
	s.nodeLn = &countingListener{Listener: ln}
	s.nodeDone = make(chan struct{})
	go func() {
		defer close(s.nodeDone)
		_ = s.node.Serve(s.nodeLn)
	}()
	s.cl, err = cluster.Connect(cfg, 0)
	return err
}

func (s *system) openLive(ctx context.Context, t *core.Tamer) error {
	ictx, cancel := context.WithCancel(ctx)
	ing, err := live.Open(ictx, t, live.Config{Dir: s.spec.liveDir})
	if err != nil {
		cancel()
		return err
	}
	s.ing, s.ingCancel = ing, cancel
	return nil
}

// ingestor returns the live ingester as a serve.Ingestor, or an untyped
// nil in batch mode (a typed nil would slip past serve's availability check).
func (s *system) ingestor() serve.Ingestor {
	if s.ing == nil {
		return nil
	}
	return s.ing
}

// newServer builds the /v1 handler with dtserver's default middleware:
// metrics into the process registry and the generation-keyed cache.
func (s *system) newServer(q serve.Querier, ing serve.Ingestor) http.Handler {
	return serve.NewLive(q, ing,
		serve.WithGeneration(s.t.DataGeneration),
		serve.WithCacheBytes(0),
		serve.WithMetrics(obs.Default()))
}

// listen serves h on a loopback port and waits for the first accepted
// request. The handler sits behind an atomic pointer so the traced run can
// swap in its wrapped handler without restarting the listener.
func (s *system) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.plain = h
	s.setHandler(h)
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.handler.Load()).ServeHTTP(w, r)
	}), ReadHeaderTimeout: 5 * time.Second}
	s.url = "http://" + ln.Addr().String()
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		_ = s.hs.Serve(ln)
	}()
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (s *system) setHandler(h http.Handler) { s.handler.Store(&h) }

// kill stops the live ingester the way a crash would: the open context is
// cancelled, so the closing checkpoint is skipped and the WAL stays the
// recovery source for every acknowledged write.
func (s *system) kill() error {
	if s.ing == nil {
		return nil
	}
	s.ingCancel()
	err := s.ing.Close()
	s.ing = nil
	return err
}

// close stops everything build started and waits for it to end.
func (s *system) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.hs.Shutdown(ctx)
		cancel()
		<-s.httpDone
		s.hs = nil
	}
	if s.ing != nil {
		if err := s.kill(); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "perfbench: closing ingester:", err)
		}
	}
	if s.cl != nil {
		_ = s.cl.Close()
		s.cl = nil
	}
	if s.nodeLn != nil {
		_ = s.nodeLn.Close()
		<-s.nodeDone
		s.nodeLn.wait()
		_ = s.node.Close()
		s.nodeLn = nil
	}
}

// countingListener counts accepted connections and the bytes that cross
// them, and lets close wait until every served connection has ended.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
	bytes    atomic.Int64
	conns    sync.WaitGroup
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

// wait blocks until every accepted connection has been closed, bounded so
// a stuck peer cannot hang the benchmark.
func (l *countingListener) wait() {
	done := make(chan struct{})
	go func() {
		l.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "perfbench: node connections still open after 10s")
	}
}

type countingConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.l.conns.Done)
	return err
}
