package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	bipartite "repro"
	"repro/internal/cluster"
	"repro/internal/servehttp"
)

// fleetReplicas is the number of in-process HTTP replicas behind the
// router; each runs its kernels on a width-1 pool.
const fleetReplicas = 2

type replica struct {
	srv  *bipartite.Server
	pool *bipartite.Pool
	h    *servehttp.Handler
	hs   *http.Server
	url  string // the stable name the router knows the replica by
}

// fleet is a router in front of in-process replicas, all on loopback, as
// cmd/matchrouter and cmd/matchserve run them with their default flags
// except for the replicas' pool width and watchdog (off: in one process it
// would sample the load generator's CPU too).
type fleet struct {
	reps      []*replica
	client    *cluster.Client
	router    *http.Server
	url       string
	tr        *tracer           // nil when untraced
	addrs     map[string]string // replica host:port as named in its url → listening address
	serveWG   sync.WaitGroup
	stopProbe chan struct{}
	probeDone chan struct{} // nil until the membership prober starts
}

func (f *fleet) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return hs, ln.Addr().String(), nil
}

// startFleet boots the replicas and the router. With tr non-nil the muxes
// and the router's replica transport are wrapped in tr's timing layers.
func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr, stopProbe: make(chan struct{}), addrs: map[string]string{}}
	var urls []string
	for r := 0; r < fleetReplicas; r++ {
		pool := bipartite.NewPool(1)
		srv := bipartite.NewServerConfig(&bipartite.Options{ScalingIterations: 5, Workers: 1, Pool: pool},
			bipartite.ServerConfig{MaxBatch: 256})
		h := servehttp.NewHandler(srv, servehttp.Config{MaxGraphs: 1024, MaxBody: 8 << 20})
		var mux http.Handler = servehttp.NewMux(h)
		if tr != nil {
			mux = tr.wrapReplica(mux)
		}
		hs, addr, err := f.serve(mux)
		// The ring hashes replica urls; stable names keep graph placement
		// the same in every run, whatever ports the listeners get.
		host := fmt.Sprintf("replica-%d.matchperf:80", r)
		f.addrs[host] = addr
		rep := &replica{srv: srv, pool: pool, h: h, hs: hs, url: "http://" + host}
		f.reps = append(f.reps, rep)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, rep.url)
	}
	// The router's transport is http.DefaultTransport's configuration, as
	// the cluster client's default, plus the name mapping.
	base := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := f.addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	var rt http.RoundTripper = base
	if tr != nil {
		rt = &spanTransport{base: base, tr: tr}
	}
	f.client = cluster.New(urls, cluster.Options{HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rt}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	healthy := f.client.Probe(ctx)
	cancel()
	if healthy != fleetReplicas {
		f.close()
		return nil, fmt.Errorf("fleet: %d of %d replicas healthy", healthy, fleetReplicas)
	}
	// Membership probing every 2s, the matchrouter default.
	f.probeDone = make(chan struct{})
	go func() {
		defer close(f.probeDone)
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-f.stopProbe:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				f.client.Probe(ctx)
				cancel()
			}
		}
	}()
	var mux http.Handler = cluster.NewRouterMux(cluster.NewRouter(f.client, 8<<20))
	if tr != nil {
		mux = tr.wrapRouter(mux)
	}
	hs, addr, err := f.serve(mux)
	f.router, f.url = hs, "http://"+addr
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the router, the replicas and their servers, and waits for
// every serving goroutine to return.
func (f *fleet) close() {
	close(f.stopProbe)
	if f.probeDone != nil {
		<-f.probeDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.router != nil {
		f.router.Shutdown(ctx)
	}
	for _, r := range f.reps {
		if r.hs != nil {
			r.hs.Shutdown(ctx)
		}
		r.h.Close()
		r.pool.Close()
	}
	f.serveWG.Wait()
}

// serverStats sums the replicas' Server counters.
func (f *fleet) serverStats() bipartite.ServerStats {
	var s bipartite.ServerStats
	for _, r := range f.reps {
		st := r.srv.Stats()
		s.Requests += st.Requests
		s.Batches += st.Batches
		s.Rejected += st.Rejected + st.Shed + st.WouldMiss + st.RateLimited
	}
	return s
}

// --- tracing -------------------------------------------------------------

// tracer records spans at the benchmark's own layer boundaries: the
// router's handler, each router-to-replica round trip, and each replica's
// handler. A round trip carries a span id header so the replica span it
// caused is joined to the router request that caused it. Recording is off
// until on is set, so one fleet serves an untraced and a traced pass.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu      sync.Mutex
	routed  []routedSpan
	replica map[int64]replicaSpan
	ms      map[int64]float64 // the "ms" field of each replica /match answer
}

type routedSpan struct {
	start, end time.Time
	match      bool // POST /match (else a graph PATCH)
	children   []int64
}

type replicaSpan struct {
	start, end time.Time
	method     string
}

const spanHeader = "X-Matchperf-Span"

type traceKey struct{}

// reqTrace collects the ids of the round trips one router request made.
type reqTrace struct {
	mu  sync.Mutex
	ids []int64
}

func newTracer() *tracer {
	return &tracer{replica: map[int64]replicaSpan{}, ms: map[int64]float64{}}
}

func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routed = nil
	t.replica = map[int64]replicaSpan{}
	t.ms = map[int64]float64{}
}

func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		match := r.Method == http.MethodPost && r.URL.Path == "/match"
		if !t.on.Load() || !(match || r.Method == http.MethodPatch) {
			h.ServeHTTP(w, r)
			return
		}
		rt := &reqTrace{}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, rt)))
		end := time.Now()
		rt.mu.Lock()
		ids := append([]int64(nil), rt.ids...)
		rt.mu.Unlock()
		t.mu.Lock()
		t.routed = append(t.routed, routedSpan{start: start, end: end, match: match, children: ids})
		t.mu.Unlock()
	})
}

func (t *tracer) wrapReplica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.replica[id] = replicaSpan{start: start, end: end, method: r.Method}
		t.mu.Unlock()
	})
}

// spanTransport is the router's transport to the replicas when tracing:
// it tags each round trip of a traced router request with a span id and
// reads the replica's "ms" field off the decoded answer's tail.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, ok := req.Context().Value(traceKey{}).(*reqTrace)
	if !ok {
		return s.base.RoundTrip(req)
	}
	id := s.tr.nextID.Add(1)
	rt.mu.Lock()
	rt.ids = append(rt.ids, id)
	rt.mu.Unlock()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := s.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/match" {
		return resp, err
	}
	resp.Body = &tailBody{rc: resp.Body, done: func(tail []byte) {
		if m := msField.FindSubmatch(tail); m != nil {
			if v, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
				s.tr.mu.Lock()
				s.tr.ms[id] = v
				s.tr.mu.Unlock()
			}
		}
	}}
	return resp, nil
}

var msField = regexp.MustCompile(`"ms":([-+0-9.eE]+)`)

// tailBody keeps the last bytes read through it and hands them to done
// once the body is exhausted or closed.
type tailBody struct {
	rc   io.ReadCloser
	tail []byte
	done func([]byte)
	once sync.Once
}

func (b *tailBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.tail = append(b.tail, p[:n]...)
	if len(b.tail) > 512 {
		b.tail = append(b.tail[:0], b.tail[len(b.tail)-256:]...)
	}
	if errors.Is(err, io.EOF) {
		b.once.Do(func() { b.done(b.tail) })
	}
	return n, err
}

func (b *tailBody) Close() error {
	b.once.Do(func() { b.done(b.tail) })
	return b.rc.Close()
}

// layerTimes is the traced pass's serving split.
type layerTimes struct {
	serverMs      []float64 // replica "ms": queue wait + engine
	httpSelf      []float64 // replica handler span − ms
	clusterSelf   []float64 // router span − the replica spans it caused
	patchMs       []float64 // replica PATCH handler spans
	matchRequests int       // router /match requests
}

// analyze joins the recorded spans.
func (t *tracer) analyze() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTimes
	for id, rs := range t.replica {
		d := msBetween(rs.start, rs.end)
		if rs.method == http.MethodPatch {
			lt.patchMs = append(lt.patchMs, d)
			continue
		}
		if ms, ok := t.ms[id]; ok {
			lt.serverMs = append(lt.serverMs, ms)
			lt.httpSelf = append(lt.httpSelf, d-ms)
		}
	}
	for _, r := range t.routed {
		if r.match {
			lt.matchRequests++
		}
		var iv [][2]time.Time
		for _, id := range r.children {
			if rs, ok := t.replica[id]; ok {
				iv = append(iv, [2]time.Time{rs.start, rs.end})
			}
		}
		lt.clusterSelf = append(lt.clusterSelf, msBetween(r.start, r.end)-coveredMs(r.start, r.end, iv))
	}
	return lt
}

// coveredMs is how much of [start, end] the union of the intervals covers.
func coveredMs(start, end time.Time, iv [][2]time.Time) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	total := time.Duration(0)
	cur := start
	for _, x := range iv {
		s, e := x[0], x[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return float64(total.Nanoseconds()) / 1e6
}
