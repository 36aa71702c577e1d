package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"cgcm/internal/server"
)

// The serve_mixed classes are its four latency bands.
const (
	tinyWarm = iota
	smallWarm
	tinyCold
	smallCold
)

var (
	smallPrograms = []string{"atax", "bicg", "gesummv", "gemver"}
	serveTenants  = []string{"t0", "t1", "t2", "t3"}
)

// request is one prepared POST /run: everything but a cold request's
// trailing comment.
type request struct {
	program string
	source  string
	gold    runGolden
}

// serveInstance serves serve_mixed: a cgcmd server behind its HTTP
// handler on a loopback listener, and the keep-alive client the
// closed-loop callers share.
type serveInstance struct {
	srv    *server.Server
	http   *http.Server
	client *http.Client
	url    string
	tiny   []request
	small  []request

	// Counters over the traced operations, for layers().
	mu      sync.Mutex
	traced  int
	hits    int
	shed    int
	queueUS []float64
	latMS   [4][]float64
}

func prepareServe(g *goldens) (instance, error) {
	si := &serveInstance{}
	load := func(program string) (request, error) {
		src, err := source(program)
		if err != nil {
			return request{}, err
		}
		gold, ok := g.Run[goldenKey(program, "opt")]
		if !ok {
			return request{}, fmt.Errorf("no run golden for %s", goldenKey(program, "opt"))
		}
		return request{program, src, gold}, nil
	}
	for v := 0; v < tinyVariants; v++ {
		r, err := load(tinyName(v))
		if err != nil {
			return nil, err
		}
		si.tiny = append(si.tiny, r)
	}
	for _, name := range smallPrograms {
		r, err := load(name)
		if err != nil {
			return nil, err
		}
		si.small = append(si.small, r)
	}

	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	si.srv = srv
	if si.http, si.url, err = listen(srv); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	si.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	// Fill the compile cache, so that every warm request is a hit from
	// the warm-up round on.
	for _, r := range append(append([]request(nil), si.tiny...), si.small...) {
		if _, _, err := si.post(r, serveTenants[0], noSpan); err != nil {
			_ = si.close()
			return nil, fmt.Errorf("priming %s: %w", r.program, err)
		}
	}
	return si, nil
}

// listen serves srv's handler on a loopback port and returns the URL of
// POST /run. Shutting the returned server down ends its goroutine.
func listen(srv *server.Server) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String() + "/run", nil
}

func (si *serveInstance) close() error {
	// No request is in flight when an instance is closed, so the
	// listener and its connections can go at once; a graceful Shutdown
	// would wait five seconds for a connection dialled but never used.
	herr := si.http.Close()
	si.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := si.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// noSpan is the span hook of untraced operations.
func noSpan(string) func() { return func() {} }

// post sends one request and returns the time from sending it to
// holding the whole response body, which is what a tenant waits for.
func (si *serveInstance) post(r request, tenant string, span func(string) func()) (time.Duration, *server.RunResponse, error) {
	end := span("hostbench.encode")
	body, err := json.Marshal(server.RunRequest{
		Tenant:  tenant,
		Program: r.program,
		Source:  r.source,
		Options: server.RunOptions{Workers: 1},
	})
	end()
	if err != nil {
		return 0, nil, err
	}

	end = span("server.POST /run")
	t0 := time.Now()
	resp, err := si.client.Post(si.url, "application/json", bytes.NewReader(body))
	if err != nil {
		end()
		return time.Since(t0), nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	end()
	_ = resp.Body.Close()
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, &httpError{resp.StatusCode, string(bytes.TrimSpace(raw))}
	}

	end = span("hostbench.decode")
	var rr server.RunResponse
	err = json.Unmarshal(raw, &rr)
	end()
	if err != nil {
		return lat, nil, err
	}
	return lat, &rr, r.gold.verify(runResult{rr.OutputSHA256, rr.Exit, rr.Stats, rr.RTStats, rr.Comm})
}

type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

func (si *serveInstance) do(c, k int, nonce uint64, tr *tracer, op int) (time.Duration, error) {
	var r request
	switch c {
	case tinyWarm, tinyCold:
		r = si.tiny[k%len(si.tiny)]
	default:
		r = si.small[k%len(si.small)]
	}
	warm := c == tinyWarm || c == smallWarm
	if !warm {
		r.source = coldVariant(r.source, nonce)
	}
	span := noSpan
	if tr != nil {
		root := tr.begin("hostbench.op", -1, op)
		defer tr.end(root)
		span = func(name string) func() {
			s := tr.begin(name, root, op)
			return func() { tr.end(s) }
		}
	}
	lat, rr, err := si.post(r, serveTenants[op%len(serveTenants)], span)
	if tr != nil {
		si.mu.Lock()
		var he *httpError
		if errors.As(err, &he) && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable) {
			si.shed++
		}
		if rr != nil {
			si.traced++
			if rr.Cached {
				si.hits++
			}
			si.queueUS = append(si.queueUS, float64(rr.QueueNS)/1e3)
			si.latMS[c] = append(si.latMS[c], float64(lat.Nanoseconds())/1e6)
		}
		si.mu.Unlock()
	}
	if err == nil && rr.Cached != warm {
		// The output is right, but the operation was not of the class
		// the workload says it is.
		err = fmt.Errorf("%s: cached=%v", r.program, rr.Cached)
	}
	return lat, err
}

func (si *serveInstance) checkDrivers() error { return nil } // POST /run is the product's own entry point

// layers reports the server's workload-derived per-layer metrics, all
// measured at the client or taken from the responses.
func (si *serveInstance) layers(m map[string]float64) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.traced == 0 {
		return
	}
	m["server.cache_hit_ratio"] = float64(si.hits) / float64(si.traced)
	m["server.shed"] = float64(si.shed)
	sort.Float64s(si.queueUS)
	m["server.queue_p95_us"] = percentile(si.queueUS, 95)
	var all []float64
	for c, name := range []string{"tiny_warm", "small_warm", "tiny_cold", "small_cold"} {
		all = append(all, si.latMS[c]...)
		if len(si.latMS[c]) > 0 {
			m["server."+name+".p50_ms"] = median(si.latMS[c])
		}
	}
	sort.Float64s(all)
	m["server.req_p99_ms"] = percentile(all, 99)
}
