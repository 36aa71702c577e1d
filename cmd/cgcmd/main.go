// Command cgcmd is the multi-tenant compile+run service: a long-running
// HTTP front end over the CGCM compiler and simulated machine that
// stays correct and responsive under overload. It layers admission
// control (bounded queue, weighted round-robin across tenants, typed
// 429/503 shedding), per-request deadlines that abort runs at the next
// kernel-launch boundary, per-tenant GPU-memory quotas that degrade an
// over-quota tenant losslessly to CPU fallback, and a singleflight
// compilation cache — while keeping every response payload bit-identical
// to a solo in-process run of the same request.
//
// Usage:
//
//	cgcmd                              # serve on 127.0.0.1:8377
//	cgcmd -listen :9000 -workers 8     # explicit address and pool size
//	cgcmd -quota 1048576               # 1 MiB device-memory quota per tenant
//	cgcmd -tenant-quota alpha=262144 -weight alpha=3
//	cgcmd -runlog .cgcm/runs           # append one run record per request
//	cgcmd -version                     # print build identity and exit
//
// Endpoints:
//
//	POST /run      {"tenant":"a","program":"x.c","source":"...","options":{...},"deadline_ms":5000}
//	GET  /metrics  Prometheus exposition; per-tenant samples carry {tenant="..."}
//	GET  /healthz  200 while serving, 503 while draining
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (new requests
// get typed 503s), everything already admitted finishes within -drain,
// then the process exits. Runs still in flight when the drain deadline
// expires are canceled at their next kernel-launch boundary and answer
// with typed deadline errors carrying partial statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/server"
)

// kvFlag is a repeatable "tenant=value" flag collecting into a map.
type kvFlag struct {
	m     map[string]int64
	label string
}

func (f *kvFlag) String() string {
	if f == nil || len(f.m) == 0 {
		return ""
	}
	parts := make([]string, 0, len(f.m))
	for k, v := range f.m {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f *kvFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want tenant=%s, got %q", f.label, s)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("bad %s in %q", f.label, s)
	}
	if f.m == nil {
		f.m = make(map[string]int64)
	}
	f.m[name] = n
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgcmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8377", "HTTP listen address")
	workers := fs.Int("workers", 0, "worker-pool size, the run concurrency limit (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission-queue capacity; requests beyond it are shed with 429 (0 = 4x workers)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT before in-flight runs are canceled")
	maxSource := fs.Int("max-source", 0, "per-request source size cap in bytes (0 = 1 MiB)")
	defDeadline := fs.Duration("default-deadline", 0, "deadline applied to requests that set no deadline_ms (0 = unbounded)")
	quota := fs.Int64("quota", 0, "default per-tenant device-memory quota in bytes; over-quota runs degrade losslessly to CPU (0 = unlimited)")
	tenantQuota := &kvFlag{label: "bytes"}
	fs.Var(tenantQuota, "tenant-quota", "per-tenant quota override, tenant=bytes (repeatable)")
	weight := &kvFlag{label: "weight"}
	fs.Var(weight, "weight", "per-tenant scheduling weight, tenant=n (repeatable; default 1)")
	runlogDir := fs.String("runlog", "", "append one durable run record per completed request to this store directory")
	version := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cli.PrintVersion(stdout, "cgcmd")
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cgcmd: unexpected arguments %q\n", fs.Args())
		return 2
	}

	weights := make(map[string]int, len(weight.m))
	for t, w := range weight.m {
		weights[t] = int(w)
	}
	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueCapacity:   *queue,
		DefaultDeadline: *defDeadline,
		MaxSourceBytes:  *maxSource,
		DefaultQuota:    *quota,
		TenantQuotas:    tenantQuota.m,
		Weights:         weights,
		RunlogDir:       *runlogDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "cgcmd: %v\n", err)
		return 1
	}
	hs, err := cli.ServeHTTP(*listen, srv.Handler())
	if err != nil {
		fmt.Fprintf(stderr, "cgcmd: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "cgcmd: serving on http://%s\n", hs.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := hs.Wait(ctx); err != nil {
		fmt.Fprintf(stderr, "cgcmd: serve: %v\n", err)
		_ = hs.Close()
		return 1
	}
	stop()

	fmt.Fprintf(stdout, "cgcmd: draining (deadline %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "cgcmd: %v\n", err)
		code = 1
	}
	if err := hs.Close(); err != nil {
		fmt.Fprintf(stderr, "cgcmd: close: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stdout, "cgcmd: drained; bye")
	return code
}
