package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgcm/internal/core"
)

const tinyProg = `
int main() {
	print_int(42);
	return 0;
}`

func TestCacheKeySensitivity(t *testing.T) {
	base := cacheKey("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized})
	if cacheKey("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized}) != base {
		t.Fatal("identical inputs produced different keys")
	}
	if cacheKey("q.c", tinyProg, core.Options{Strategy: core.CGCMOptimized}) == base {
		t.Fatal("program name not in the key")
	}
	if cacheKey("p.c", tinyProg+" ", core.Options{Strategy: core.CGCMOptimized}) == base {
		t.Fatal("source not in the key")
	}
	if cacheKey("p.c", tinyProg, core.Options{Strategy: core.CGCMUnoptimized}) == base {
		t.Fatal("strategy not in the key")
	}
	if cacheKey("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized, Async: true}) == base {
		t.Fatal("async not in the key")
	}
	// Workers is host-dependent and cannot change simulated results:
	// requests differing only there share one compilation.
	if cacheKey("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized, Workers: 7}) != base {
		t.Fatal("worker count leaked into the key")
	}
}

// TestCacheSingleflight: a herd of concurrent gets for one key runs the
// compile exactly once; the waiters count as dedups, later gets as hits.
func TestCacheSingleflight(t *testing.T) {
	c := newCompileCache()
	var compiles atomic.Int64
	gate := make(chan struct{})

	const herd = 16
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, _, err := c.get(context.Background(), "k", func() (*core.Program, error) {
				compiles.Add(1)
				<-gate
				return core.Compile("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized})
			})
			if err != nil || prog == nil {
				t.Errorf("get: prog=%v err=%v", prog, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times for one key, want 1", n)
	}
	// A get after completion is a hit with cached=true.
	_, cached, err := c.get(context.Background(), "k", func() (*core.Program, error) {
		t.Fatal("compile re-ran for a finished entry")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("post-completion get: cached=%v err=%v, want true/nil", cached, err)
	}
	// Which side of the hit/dedup split a waiter lands on depends on
	// scheduling; the invariants are one miss and herd accounted for.
	hits, misses, dedups := c.counters()
	if misses != 1 || hits+dedups != herd {
		t.Fatalf("counters hits=%d misses=%d dedups=%d, want misses=1 and hits+dedups=%d", hits, misses, dedups, herd)
	}
}

// TestCacheNegativeCaching: a failed compilation is cached; the herd
// learns the failure once.
func TestCacheNegativeCaching(t *testing.T) {
	c := newCompileCache()
	boom := errors.New("boom")
	var compiles int
	for i := 0; i < 3; i++ {
		_, _, err := c.get(context.Background(), "bad", func() (*core.Program, error) {
			compiles++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("get %d: err = %v, want boom", i, err)
		}
	}
	if compiles != 1 {
		t.Fatalf("failing compile ran %d times, want 1", compiles)
	}
}

// TestCacheWaiterCancellation: a canceled waiter unblocks with its
// context error while the shared compile continues for everyone else.
func TestCacheWaiterCancellation(t *testing.T) {
	c := newCompileCache()
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.get(context.Background(), "k", func() (*core.Program, error) {
			close(started)
			<-gate
			return core.Compile("p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized})
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.get(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	// The shared compile still completes and serves later callers.
	prog, _, err := c.get(context.Background(), "k", nil)
	if err != nil || prog == nil {
		t.Fatalf("post-cancel get: prog=%v err=%v", prog, err)
	}
}

// TestCacheCanceledLeaderIsNotCached: a compile cut short by its leader's
// context is no verdict on the source. A waiter whose own context is live
// starts over and succeeds, and so does every later get.
func TestCacheCanceledLeaderIsNotCached(t *testing.T) {
	c := newCompileCache()
	compile := func(ctx context.Context) func() (*core.Program, error) {
		return func() (*core.Program, error) {
			return core.CompileContext(ctx, "p.c", tinyProg, core.Options{Strategy: core.CGCMOptimized})
		}
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	started, gate := make(chan struct{}), make(chan struct{})
	leader, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := c.get(leaderCtx, "k", func() (*core.Program, error) {
			close(started)
			<-gate
			return compile(leaderCtx)()
		})
		leader <- err
	}()
	<-started
	go func() {
		prog, _, err := c.get(context.Background(), "k", compile(context.Background()))
		if err == nil && prog == nil {
			err = errors.New("no error and no program")
		}
		waiter <- err
	}()
	for {
		if _, _, dedups := c.counters(); dedups == 1 {
			break // the waiter is on the leader's entry
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(gate)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader err = %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("live waiter of a canceled leader: %v", err)
	}
	prog, _, err := c.get(context.Background(), "k", compile(context.Background()))
	if err != nil || prog == nil {
		t.Fatalf("get after a canceled leader: prog=%v err=%v", prog, err)
	}
}
