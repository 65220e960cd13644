package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// stack is one in-process server wired the way cmd/swaserver wires it with
// its default flags (striped backend, 64 MiB score cache, anonymous
// tenant), plus the loopback listener and the benchmark's HTTP client. The
// obs registry is the benchmark's own, so per-layer counters can be read
// without scraping.
type stack struct {
	reg      *obs.Registry
	svc      *alignsvc.Service
	srv      *server.Server
	searcher *corpus.Searcher // nil unless a corpus is mounted

	httpSrv *http.Server
	served  chan error
	url     string
	tr      *http.Transport
	client  *http.Client
}

// corpusName is the mount name of the search corpus.
const corpusName = "ref"

// newStack starts a server. c, when non-nil, is mounted for /search. rec,
// when non-nil, wraps the handler and the search backend with span
// recording, active only while rec is switched on.
func newStack(c *corpus.Corpus, rec *recorder) (*stack, error) {
	st := &stack{reg: obs.NewRegistry()}
	cache := aligncache.New(aligncache.Config{
		MaxBytes: 64 << 20,
		TTL:      10 * time.Minute,
		Shards:   16,
		Metrics:  st.reg,
	})
	st.svc = alignsvc.New(alignsvc.Config{
		Backend: alignsvc.BackendStriped,
		Cache:   cache,
		Lanes:   32,
		Seed:    1,
		Metrics: st.reg,
	})
	var corpora *corpus.Registry
	if c != nil {
		be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 32)
		if err != nil {
			st.svc.Close()
			return nil, fmt.Errorf("search backend: %w", err)
		}
		if rec != nil {
			be = &tracedBackend{Backend: be, rec: rec}
		}
		st.searcher = corpus.NewSearcher(c, be, st.reg)
		corpora = corpus.NewRegistry()
		if err := corpora.Add(corpusName, c, st.searcher); err != nil {
			st.svc.Close()
			return nil, fmt.Errorf("mount corpus: %w", err)
		}
	}
	srv, err := server.New(server.Config{Service: st.svc, Metrics: st.reg, Corpora: corpora})
	if err != nil {
		st.svc.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	st.srv = srv
	handler := srv.Handler()
	if rec != nil {
		handler = &tracedHandler{next: handler, rec: rec}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.url = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()

	// At most GOMAXPROCS connections, kept alive between requests.
	conns := runtime.GOMAXPROCS(0)
	st.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	st.client = &http.Client{Transport: st.tr}
	return st, nil
}

// close shuts the listener down, waits for Serve to return and stops the
// service workers.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.httpSrv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.tr.CloseIdleConnections()
	st.svc.Close()
	if err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

// counters is a snapshot of everything the per-layer ledger reads from
// the stack, so a phase's numbers are deltas between two snapshots.
type counters struct {
	server server.ServerStats
	svc    alignsvc.Stats
	cache  aligncache.Stats
	hists  map[string][2]float64 // name → (count, sum seconds)
}

// ledgerHists are the registry histograms the per-layer metrics read.
var ledgerHists = []string{
	obs.L("http_request_seconds", "route", "align"),
	obs.L("http_request_seconds", "route", "search"),
	obs.L("tenant_admission_wait_seconds", "tenant", "anonymous"),
	"alignsvc_queue_wait_seconds",
	obs.L("alignsvc_batch_seconds", "tier", "striped"),
	"aligncache_lookup_seconds",
}

func (st *stack) snapshot() counters {
	c := counters{
		server: st.srv.Stats(),
		svc:    st.svc.Stats(),
		hists:  map[string][2]float64{},
	}
	if cs := st.svc.CacheStats(); cs != nil {
		c.cache = *cs
	}
	for _, name := range ledgerHists {
		// Histogram is get-or-create; the buckets matter only on creation,
		// and a histogram created here simply reads zero.
		h := st.reg.Histogram(name, obs.LatencyBuckets)
		c.hists[name] = [2]float64{float64(h.Count()), h.Sum()}
	}
	return c
}

// histMean is the mean of a histogram's observations between two
// snapshots, in the histogram's unit, and 0 when nothing was observed.
func histMean(a, b counters, name string) float64 {
	n := b.hists[name][0] - a.hists[name][0]
	if n <= 0 {
		return 0
	}
	return (b.hists[name][1] - a.hists[name][1]) / n
}
