// Compilation cache: compile once, run many. Cache keys combine the
// source hash with the canonical Options fingerprint (the same
// fingerprint run records store), so two requests share a compiled
// Program exactly when a stored record would call their runs
// comparable. Lookup is singleflight: a thundering herd of identical
// sources blocks on one compilation instead of stampeding the
// compiler. Safe because core.Program is immutable after Compile and
// explicitly supports concurrent Run.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cgcm/internal/cli"
	"cgcm/internal/core"
)

// cacheKey derives the cache key for one request: sha256 over the
// source hash plus the canonical fingerprint rendering. Workers is
// zeroed first — it cannot change simulated results (the fingerprint
// itself documents it as host-dependent), so requests differing only in
// worker count share one compilation.
func cacheKey(program, source string, opts core.Options) string {
	fp := cli.FingerprintOptions(opts)
	fp.Workers = 0
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		// OptionsFP is plain data; Marshal cannot fail. Keep the key
		// total anyway.
		fpJSON = []byte(fmt.Sprintf("%+v", fp))
	}
	h := sha256.New()
	h.Write([]byte(program))
	h.Write([]byte{0})
	h.Write([]byte(source))
	h.Write([]byte{0})
	h.Write(fpJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEntry is one singleflight slot: done closes when the compile
// finishes, after which prog/err are immutable.
type cacheEntry struct {
	done chan struct{}
	prog *core.Program
	err  error
}

// compileCache is the singleflight compilation cache. Entries persist
// for the server's lifetime (compiled Programs are small relative to
// the simulated heaps their runs build, and the bench suite tops out at
// dozens of distinct sources); a capacity bound can slot into
// get() later without changing callers.
type compileCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
	dedups atomic.Int64
}

func newCompileCache() *compileCache {
	return &compileCache{entries: make(map[string]*cacheEntry)}
}

// get returns the cached Program for key, compiling it with compile()
// on the first request. Concurrent requests for one key wait on the
// single in-flight compilation (counted as dedups). The cached flag
// reports whether this caller got a previously finished compilation —
// the response's "cached" field.
//
// Failed compilations are cached too: a source that does not compile
// does not compile, and the herd should learn that once. A compilation
// cut short by its leader's context is different — it says nothing about
// the source — so its entry is dropped, and a waiter whose own context is
// still live starts over (and may become the leader). ctx aborts only
// this caller's wait, never the shared compile.
func (c *compileCache) get(ctx context.Context, key string, compile func() (*core.Program, error)) (prog *core.Program, cached bool, err error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.misses.Add(1)
			e.prog, e.err = compile()
			if canceled(e.err) {
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
			}
			close(e.done)
			return e.prog, false, e.err
		}
		c.mu.Unlock()
		hit := false
		select {
		case <-e.done:
			hit = true
		default:
			c.dedups.Add(1)
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if canceled(e.err) {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			continue
		}
		if hit {
			c.hits.Add(1)
		}
		return e.prog, hit, e.err
	}
}

// canceled reports whether err is a context's cancellation or expiry.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// counters reports lifetime hit/miss/dedup totals.
func (c *compileCache) counters() (hits, misses, dedups int64) {
	return c.hits.Load(), c.misses.Load(), c.dedups.Load()
}
