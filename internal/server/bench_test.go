package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cgcm/internal/bench"
)

// BenchmarkSubmit is the service layer's benchmark: one POST /run of
// serve_mixed's tiny program through the HTTP handler (httptest, no
// socket) — decode, admit, schedule, the compile cache, the run and the
// encoded response. warm hits the cache every time; cold sends a source
// the cache has not seen, so every request compiles. The cold server is
// replaced every 256 requests, off the clock, so its cache stays small.
func BenchmarkSubmit(b *testing.B) {
	post := func(b *testing.B, h http.Handler, src string) {
		body, err := json.Marshal(RunRequest{Tenant: "a", Program: "tiny.c", Source: src, Options: RunOptions{Workers: 1}})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /run = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.Run("warm", func(b *testing.B) {
		h := newTestServer(b, Config{Workers: 1}).Handler()
		post(b, h, bench.Tiny) // compiles, caches and lowers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, bench.Tiny)
		}
	})
	b.Run("cold", func(b *testing.B) {
		var h http.Handler
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%256 == 0 {
				b.StopTimer()
				h = newTestServer(b, Config{Workers: 1}).Handler()
				b.StartTimer()
			}
			post(b, h, fmt.Sprintf("// request %d\n%s", i, bench.Tiny))
		}
	})
}
