package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgcm/internal/core"
)

// soakTemplate is one request shape in the soak mix, with what a
// successful response must look like.
type soakTemplate struct {
	name   string
	tenant string
	body   []byte
	// wantPayload is the solo-run payload for fully deterministic
	// configs; empty for the quota tenant, whose concurrent runs contend
	// for one quota (Stats may differ run to run; output never does).
	wantPayload string
	// wantOutput is the solo plain-run output hash every successful
	// response must match.
	wantOutput string
	// wantDeadline marks the template whose requests must expire.
	wantDeadline bool
}

func soloPayloadFor(t *testing.T, tmpl *soakTemplate) {
	t.Helper()
	req, derr := DecodeRequest(tmpl.body, 0)
	if derr != nil {
		t.Fatalf("%s: decode: %v", tmpl.name, derr)
	}
	payload, output := soloRun(t, req, core.RunConfig{})
	tmpl.wantPayload = string(payload)
	tmpl.wantOutput = hashOutput(output)
}

// TestSoak hammers one server through its full HTTP surface with
// concurrent clients across ≥8 tenants, mixing cache hits and misses,
// deadline expiries, quota evictions, and the standard injected-fault
// plan. Every successful response must be bit-identical to the solo
// run of the same request; every failure must be a typed catalogue
// error; and after the final drain no goroutine may survive. Short
// mode (the `make ci` race run) scales the client count down; the full
// ≥1000-client soak runs under CGCM_SOAK=1 (`make soak`).
func TestSoak(t *testing.T) {
	clients := 120
	queueCap := 48
	if os.Getenv("CGCM_SOAK") != "" {
		clients = 1200
		queueCap = 192
	} else if testing.Short() {
		clients = 60
	}

	mkBody := func(tenant, program, source string, opts RunOptions, deadlineMS int64) []byte {
		b, err := json.Marshal(RunRequest{Tenant: tenant, Program: program, Source: source, Options: opts, DeadlineMS: deadlineMS})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The mix: six unlimited tenants with deterministic configs (four
	// distinct tiny sources for cache churn, gpuVec plain, gpuVec under
	// the standard fault plan), one quota-starved tenant, one tenant
	// that always misses its deadline. Eight tenants total.
	var templates []*soakTemplate
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("int main() {\n\tprint_int(%d);\n\treturn 0;\n}", 1000+i)
		templates = append(templates, &soakTemplate{
			name:   fmt.Sprintf("tiny%d", i),
			tenant: fmt.Sprintf("t%d", i),
			body:   mkBody(fmt.Sprintf("t%d", i), fmt.Sprintf("tiny%d.c", i), src, RunOptions{}, 0),
		})
	}
	templates = append(templates,
		&soakTemplate{
			name:   "gpu-plain",
			tenant: "t4",
			body:   mkBody("t4", "vec.c", gpuVec, RunOptions{}, 0),
		},
		&soakTemplate{
			name:   "gpu-faults",
			tenant: "t5",
			body:   mkBody("t5", "vec.c", gpuVec, RunOptions{Faults: stdFaultSpec, GPUMem: stdGPUMem}, 0),
		},
	)
	for _, tmpl := range templates {
		soloPayloadFor(t, tmpl)
	}
	// Quota tenant: output must match the plain solo run (lossless
	// degradation), payload intentionally unchecked — concurrent runs
	// share the quota, so eviction counts vary with interleaving.
	plainRep, err := core.CompileAndRun("vec.c", gpuVec, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	templates = append(templates,
		&soakTemplate{
			name:       "quota-starved",
			tenant:     "hog",
			body:       mkBody("hog", "vec.c", gpuVec, RunOptions{}, 0),
			wantOutput: hashOutput(plainRep.Output),
		},
		&soakTemplate{
			name:         "deadline",
			tenant:       "rushed",
			body:         mkBody("rushed", "slow.c", slowLoop, RunOptions{}, 5),
			wantDeadline: true,
		},
	)

	goroutinesBefore := runtime.NumGoroutine()
	s, err := New(Config{
		Workers:       4,
		QueueCapacity: queueCap,
		TenantQuotas:  map[string]int64{"hog": 64},
		Weights:       map[string]int{"t0": 3, "rushed": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var ok200, shed429, expired504, quotaOK atomic.Int64
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 20 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		tmpl := templates[i%len(templates)]
		wg.Add(1)
		go func(i int, tmpl *soakTemplate) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", strings.NewReader(string(tmpl.body))))
			switch rec.Code {
			case http.StatusOK:
				if tmpl.wantDeadline {
					fail("client %d (%s): completed despite a 5ms deadline", i, tmpl.name)
					return
				}
				var resp RunResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					fail("client %d (%s): bad response JSON: %v", i, tmpl.name, err)
					return
				}
				if tmpl.wantOutput != "" && resp.OutputSHA256 != tmpl.wantOutput {
					fail("client %d (%s): output hash differs from solo run", i, tmpl.name)
					return
				}
				if tmpl.wantPayload != "" {
					got, perr := resp.Payload()
					if perr != nil || string(got) != tmpl.wantPayload {
						fail("client %d (%s): payload differs under load:\n got %s\nwant %s", i, tmpl.name, got, tmpl.wantPayload)
						return
					}
				}
				if tmpl.name == "quota-starved" {
					quotaOK.Add(1)
				}
				ok200.Add(1)
			case http.StatusTooManyRequests:
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == nil || eb.Error.Code != CodeQueueFull {
					fail("client %d (%s): 429 without typed queue_full body: %s", i, tmpl.name, rec.Body.String())
					return
				}
				shed429.Add(1)
			case http.StatusGatewayTimeout:
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == nil || eb.Error.Code != CodeDeadline {
					fail("client %d (%s): 504 without typed deadline body: %s", i, tmpl.name, rec.Body.String())
					return
				}
				if !tmpl.wantDeadline {
					fail("client %d (%s): unexpected deadline expiry", i, tmpl.name)
					return
				}
				expired504.Add(1)
			default:
				fail("client %d (%s): status %d: %s", i, tmpl.name, rec.Code, rec.Body.String())
			}
		}(i, tmpl)
	}
	wg.Wait()

	t.Logf("soak: %d clients → %d ok, %d shed(429), %d deadline(504)",
		clients, ok200.Load(), shed429.Load(), expired504.Load())
	for _, f := range failures {
		t.Error(f)
	}
	if ok200.Load() == 0 {
		t.Fatal("no request succeeded; the soak exercised nothing")
	}
	if expired504.Load() == 0 && clients >= len(templates) {
		t.Error("no deadline expiry observed; the deadline path went unexercised")
	}
	if hits, _, _ := s.CacheCounters(); hits == 0 {
		t.Error("no compilation-cache hits under a duplicate-heavy mix")
	}
	if quotaOK.Load() > 0 {
		if _, _, denials := s.QuotaPool().Usage("hog"); denials == 0 {
			t.Error("quota tenant completed runs without a single denial; quota never engaged")
		}
	}

	// Drain: admitted work finishes, new work sheds typed 503, and the
	// whole pool unwinds.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", strings.NewReader(string(templates[0].body))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request = %d, want 503", rec.Code)
	}

	// Zero goroutine leaks — including from every shed request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
