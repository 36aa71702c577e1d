// Package server is the multi-tenant compile+run service behind cgcmd:
// a long-running front end over the CGCM library that stays correct and
// responsive under overload, tenant misbehavior, and injected device
// faults. Robustness is layered:
//
//   - Admission control and backpressure (sched.go): a bounded request
//     queue with weighted round-robin fairness across tenants; excess
//     load is shed instantly with typed 429/503 responses, and the
//     worker pool is the concurrency limiter.
//   - Deadlines and cancellation: each request runs under a context
//     combining the server's lifetime, the request deadline, and the
//     client connection; a fired deadline aborts the run at the next
//     kernel-launch boundary with a typed *DeadlineError carrying the
//     partial statistics.
//   - Per-tenant GPU-memory quotas (machine.QuotaPool): an over-quota
//     tenant's allocations are denied like capacity OOM, so the PR 5
//     resilience ladder evicts that tenant's own cached units first and
//     degrades its run losslessly to CPU fallback — never touching
//     other tenants.
//   - A singleflight compilation cache (cache.go) keyed by source
//     hash plus the canonical Options fingerprint.
//
// The headline invariant extends the resilience model's: a request's
// response payload (output hash, Stats, ledger) is bit-identical
// whether the run executed alone, under contention, cached or uncached,
// or under any injected fault schedule. TestSubmitMatchesSolo checks it
// across the whole bench suite.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	"cgcm/internal/metrics"
	"cgcm/internal/runlog"
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size — the run concurrency limit.
	// 0 means GOMAXPROCS.
	Workers int
	// QueueCapacity bounds the admission queue (queued, not yet running
	// requests). 0 means 4 × workers.
	QueueCapacity int
	// DefaultDeadline applies when a request sets no deadline_ms
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxSourceBytes caps request source size (0 = DefaultMaxSourceBytes).
	MaxSourceBytes int
	// DefaultQuota is the per-tenant device-memory quota in bytes
	// (0 = unlimited); TenantQuotas overrides per tenant.
	DefaultQuota int64
	TenantQuotas map[string]int64
	// Weights sets per-tenant scheduling weights (default 1 each).
	Weights map[string]int
	// RunlogDir, when set, appends one durable run record per completed
	// request to the store at this directory.
	RunlogDir string
}

// tenantState is everything the server keeps per tenant: its metrics
// registry (exported with a tenant label), its quota governor, and
// pre-resolved instruments for the request path.
type tenantState struct {
	name string
	reg  *metrics.Registry
	gov  machine.MemGovernor

	admitted   *metrics.Counter
	shed       *metrics.Counter
	completed  *metrics.Counter
	failed     *metrics.Counter
	deadlines  *metrics.Counter
	cacheHits  *metrics.Counter
	cacheMiss  *metrics.Counter
	queueDelay *metrics.Histogram
}

// QueueDelayBuckets returns the queueing-delay histogram bounds: 1 µs
// to ~16 s, powers of 4 — the p99 the acceptance criteria report is
// interpolated inside these.
func QueueDelayBuckets() []float64 { return metrics.ExpBuckets(1e-6, 4, 13) }

// Server is one service instance.
type Server struct {
	cfg   Config
	sched *scheduler
	cache *compileCache
	pool  *machine.QuotaPool
	store *runlog.Store

	reg     *metrics.Registry // server-wide instruments
	hostReg *metrics.Registry // per-scrape Go runtime gauges

	mu      sync.Mutex
	tenants map[string]*tenantState

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds and starts a server: the worker pool is running and
// Submit/Handler accept work when it returns.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 4 * cfg.Workers
	}
	s := &Server{
		cfg:     cfg,
		sched:   newScheduler(cfg.QueueCapacity, cfg.Weights),
		cache:   newCompileCache(),
		pool:    machine.NewQuotaPool(cfg.DefaultQuota),
		reg:     metrics.New(),
		hostReg: metrics.New(),
		tenants: make(map[string]*tenantState),
	}
	for t, q := range cfg.TenantQuotas {
		s.pool.SetQuota(t, q)
	}
	if cfg.RunlogDir != "" {
		st, err := runlog.Open(cfg.RunlogDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
	return s, nil
}

// tenant returns (creating on first sight) the tenant's state.
func (s *Server) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	reg := metrics.New()
	// A governor is attached only when the tenant has a finite quota:
	// attaching one switches runs into the resilient runtime (device-copy
	// caching, eviction), and an unlimited tenant's runs must stay
	// bit-identical to plain solo cgcmrun runs.
	var gov machine.MemGovernor
	if s.pool.Quota(name) > 0 {
		gov = s.pool.Governor(name)
	}
	ts := &tenantState{
		name:       name,
		reg:        reg,
		gov:        gov,
		admitted:   reg.Counter("cgcmd.requests.admitted"),
		shed:       reg.Counter("cgcmd.requests.shed"),
		completed:  reg.Counter("cgcmd.requests.completed"),
		failed:     reg.Counter("cgcmd.requests.failed"),
		deadlines:  reg.Counter("cgcmd.requests.deadline_expired"),
		cacheHits:  reg.Counter("cgcmd.cache.hits"),
		cacheMiss:  reg.Counter("cgcmd.cache.misses"),
		queueDelay: reg.Histogram("cgcmd.queue.delay_seconds", QueueDelayBuckets()),
	}
	s.tenants[name] = ts
	return ts
}

// tenantNames lists the tenants seen so far, sorted.
func (s *Server) tenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Submit runs one validated request through admission, scheduling, and
// execution, blocking until its outcome. ctx is the caller's lifetime
// (the client connection for HTTP): its cancellation aborts the
// request. Exactly one of the three results is non-nil — except a
// deadline outcome, which returns both the typed *Error and the
// *DeadlineError detail.
func (s *Server) Submit(ctx context.Context, req *RunRequest) (*RunResponse, *Error, *DeadlineError) {
	ts := s.tenant(req.Tenant)

	// The request context layers server lifetime ← client connection ←
	// deadline. The deadline clock starts at admission, so queueing time
	// counts against it — a request cannot hide from its deadline in the
	// queue.
	rctx, rcancel := context.WithCancel(s.baseCtx)
	defer rcancel()
	stop := context.AfterFunc(ctx, rcancel)
	defer stop()
	if d := s.effectiveDeadline(req); d > 0 {
		var tcancel context.CancelFunc
		rctx, tcancel = context.WithTimeout(rctx, d)
		defer tcancel()
	}

	t := &task{req: req, ctx: rctx, enqueued: time.Now(), done: make(chan struct{})}
	if aerr := s.sched.enqueue(t); aerr != nil {
		// Shed path: no goroutine, no allocation beyond the error —
		// overload costs the server almost nothing per rejected request.
		ts.shed.Inc()
		return nil, aerr, nil
	}
	ts.admitted.Inc()
	<-t.done
	return t.resp, t.errResp, t.deadline
}

func (s *Server) effectiveDeadline(req *RunRequest) time.Duration {
	if d := req.Deadline(); d > 0 {
		return d
	}
	return s.cfg.DefaultDeadline
}

// workerLoop is one pool worker: take the next scheduled task, run it,
// repeat until drain.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		t, ok := s.sched.next()
		if !ok {
			return
		}
		s.process(t)
	}
}

// process executes one admitted task end to end and publishes its
// outcome.
func (s *Server) process(t *task) {
	defer close(t.done)
	req := t.req
	ts := s.tenant(req.Tenant)
	delay := time.Since(t.enqueued)
	ts.queueDelay.Observe(delay.Seconds())

	// A request whose context fired while queued is not run at all; the
	// deadline outcome carries zero stats.
	if cerr := t.ctx.Err(); cerr != nil {
		t.errResp, t.deadline = s.cancelOutcome(ts, req, cerr, nil)
		return
	}

	key := cacheKey(req.Program, req.Source, req.CoreOptions())
	prog, cached, err := s.cache.get(t.ctx, key, func() (*core.Program, error) {
		return core.CompileContext(t.ctx, req.Program, req.Source, req.CoreOptions())
	})
	if err != nil {
		if t.ctx.Err() != nil {
			t.errResp, t.deadline = s.cancelOutcome(ts, req, err, nil)
			return
		}
		ts.failed.Inc()
		t.errResp = errf(CodeCompile, "%v", err)
		return
	}
	if cached {
		ts.cacheHits.Inc()
	} else {
		ts.cacheMiss.Inc()
	}

	rep, rerr := prog.RunWith(core.RunConfig{Ctx: t.ctx, Metrics: ts.reg, MemGovernor: ts.gov})
	if rerr != nil {
		var cancelErr *interp.CancelError
		if errors.As(rerr, &cancelErr) || t.ctx.Err() != nil {
			t.errResp, t.deadline = s.cancelOutcome(ts, req, rerr, rep)
			return
		}
		ts.failed.Inc()
		t.errResp = errf(CodeRunFailed, "%v", rerr)
		return
	}
	ts.completed.Inc()
	t.resp = newRunResponse(req, rep, cached, delay.Nanoseconds())
	if s.store != nil {
		rec := cli.NewRunRecord(req.Tenant+"/"+req.Program, req.CoreOptions(), rep, delay.Nanoseconds())
		// Record-store failures must not fail the request: the run
		// succeeded; provenance is best-effort.
		_, _ = s.store.Append(rec)
	}
}

// cancelOutcome classifies a canceled task: deadline expiry vs client
// disconnect (or server-forced drain cancel), with partial statistics
// when the run got far enough to have any.
func (s *Server) cancelOutcome(ts *tenantState, req *RunRequest, cause error, rep *core.Report) (*Error, *DeadlineError) {
	de := &DeadlineError{Tenant: req.Tenant, Program: req.Program, err: cause}
	code := CodeCanceled
	de.Cause = "disconnect"
	if errors.Is(cause, context.DeadlineExceeded) {
		code = CodeDeadline
		de.Cause = "deadline"
	}
	if rep != nil {
		de.Stats = rep.Stats
		de.RTStats = rep.RTStats
	}
	ts.deadlines.Inc()
	return errf(code, "%v", de), de
}

// Handler returns the service's HTTP surface:
//
//	POST /run      one compile+run request (JSON body: RunRequest)
//	GET  /metrics  Prometheus exposition: server-wide, then per-tenant
//	               samples labeled {tenant="..."}, then host gauges
//	GET  /healthz  200 while serving, 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	maxSource := s.cfg.MaxSourceBytes
	if maxSource <= 0 {
		maxSource = DefaultMaxSourceBytes
	}
	limit := int64(maxSource)*2 + 8192
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		writeError(w, errf(CodeBadRequest, "reading body: %v", err), nil)
		return
	}
	req, derr := DecodeRequest(body, maxSource)
	if derr != nil {
		writeError(w, derr, nil)
		return
	}
	resp, serr, dl := s.Submit(r.Context(), req)
	if serr != nil {
		writeError(w, serr, dl)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics writes one exposition page: server-wide instruments
// first, then every tenant's registry labeled {tenant="name"}, then the
// host runtime gauges. TYPE lines are deduplicated across sections.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.refreshServerGauges()
	seen := make(map[string]bool)
	if err := metrics.WritePrometheusLabeled(w, s.reg.Snapshot(), nil, seen); err != nil {
		return
	}
	for _, name := range s.tenantNames() {
		ts := s.tenant(name)
		s.refreshTenantGauges(ts)
		if err := metrics.WritePrometheusLabeled(w, ts.reg.Snapshot(), map[string]string{"tenant": name}, seen); err != nil {
			return
		}
	}
	metrics.UpdateHost(s.hostReg)
	_ = metrics.WritePrometheusLabeled(w, s.hostReg.Snapshot(), nil, seen)
}

// refreshServerGauges publishes scrape-time server-wide state.
func (s *Server) refreshServerGauges() {
	hits, misses, dedups := s.cache.counters()
	s.reg.Gauge("cgcmd.cache.hits").Set(float64(hits))
	s.reg.Gauge("cgcmd.cache.misses").Set(float64(misses))
	s.reg.Gauge("cgcmd.cache.dedups").Set(float64(dedups))
	s.reg.Gauge("cgcmd.queue.depth").Set(float64(s.sched.queued()))
	s.reg.Gauge("cgcmd.queue.capacity").Set(float64(s.cfg.QueueCapacity))
	s.reg.Gauge("cgcmd.workers").Set(float64(s.cfg.Workers))
}

// refreshTenantGauges publishes scrape-time quota state per tenant.
func (s *Server) refreshTenantGauges(ts *tenantState) {
	used, peak, denials := s.pool.Usage(ts.name)
	ts.reg.Gauge("cgcmd.quota.bytes").Set(float64(s.pool.Quota(ts.name)))
	ts.reg.Gauge("cgcmd.quota.used_bytes").Set(float64(used))
	ts.reg.Gauge("cgcmd.quota.peak_bytes").Set(float64(peak))
	ts.reg.Gauge("cgcmd.quota.denials").Set(float64(denials))
}

// writeError renders the typed error body with its catalogue status.
func writeError(w http.ResponseWriter, e *Error, dl *DeadlineError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.HTTPStatus())
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: e, Deadline: dl})
}

// Shutdown drains the server: admission stops immediately (new work is
// shed with 503s), already-admitted requests — queued and running —
// finish normally, and the worker pool exits. If ctx fires before the
// drain completes, every in-flight run is canceled; those requests
// return typed deadline/cancel outcomes with partial statistics. Run
// records are written synchronously at request completion, so when
// Shutdown returns all records of completed requests are durable.
// Idempotent; concurrent calls share one result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.sched.drain()
		done := make(chan struct{})
		go func() {
			s.workers.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.baseCancel()
			<-done
			s.shutdownErr = fmt.Errorf("drain deadline expired: in-flight requests were canceled: %w", ctx.Err())
		}
		s.baseCancel()
	})
	return s.shutdownErr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.sched.mu.Lock()
	defer s.sched.mu.Unlock()
	return s.sched.draining
}

// QuotaPool exposes the server's quota pool (the quota tests and the soak
// read it; TestSubmitMatchesSolo builds its own).
func (s *Server) QuotaPool() *machine.QuotaPool { return s.pool }

// CacheCounters reports lifetime compile-cache hit/miss/dedup totals.
func (s *Server) CacheCounters() (hits, misses, dedups int64) { return s.cache.counters() }
