// Request decoding and validation: the hostile boundary of the service.
// Everything arriving here is untrusted bytes from a tenant; every exit
// is either a fully validated RunRequest or a typed 4xx. The decoder
// never panics — FuzzServerRequest holds it to that.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// Request limits; Config can tighten MaxSourceBytes.
const (
	// DefaultMaxSourceBytes caps program source size (1 MiB).
	DefaultMaxSourceBytes = 1 << 20
	// maxTenantLen bounds tenant names.
	maxTenantLen = 64
	// maxProgramLen bounds program names.
	maxProgramLen = 256
	// maxWorkers bounds the per-run kernel-engine worker count.
	maxWorkers = 256
	// maxGPUMem bounds the per-run simulated device capacity (1 TiB).
	maxGPUMem = int64(1) << 40
	// maxFaultsLen bounds the fault-spec string.
	maxFaultsLen = 1024
	// maxDeadline bounds the per-request deadline.
	maxDeadline = time.Hour
)

// RunOptions is the wire form of the execution options a tenant may
// set. It is a strict subset of core.Options: observability sinks and
// cost-model overrides are the server's business, not the tenant's.
type RunOptions struct {
	Strategy string `json:"strategy,omitempty"` // cli.ParseStrategy names; default "opt"
	Ablate   string `json:"ablate,omitempty"`
	Async    bool   `json:"async,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	GPUMem   int64  `json:"gpu_mem_bytes,omitempty"`
	Faults   string `json:"faults,omitempty"`
}

// RunRequest is one tenant's compile+run request.
type RunRequest struct {
	Tenant     string     `json:"tenant"`
	Program    string     `json:"program,omitempty"` // display name; default "prog.c"
	Source     string     `json:"source"`
	Options    RunOptions `json:"options,omitempty"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"` // 0 = server default

	opts core.Options // validated, materialized by DecodeRequest
}

// CoreOptions returns the validated core.Options the request maps to.
// Only valid after DecodeRequest succeeded.
func (r *RunRequest) CoreOptions() core.Options { return r.opts }

// Deadline returns the requested per-run deadline (0 = none requested).
func (r *RunRequest) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// validTenant enforces the tenant-name alphabet: the name becomes a
// metrics label and a map key, so it stays boring.
func validTenant(s string) bool {
	if s == "" || len(s) > maxTenantLen {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// DecodeRequest parses and validates one request body. maxSource caps
// the source size (<= 0 means DefaultMaxSourceBytes). Every failure is
// a typed *Error with a 4xx code; the function never panics on any
// input.
func DecodeRequest(body []byte, maxSource int) (*RunRequest, *Error) {
	if maxSource <= 0 {
		maxSource = DefaultMaxSourceBytes
	}
	// Cheap pre-parse cap: the body bound implies the source bound, so a
	// deliberately huge payload is refused before JSON work. The slack
	// covers field names, escaping, and options.
	if len(body) > maxSource*2+4096 {
		return nil, errf(CodeSourceTooLarge, "request body %d bytes exceeds limit %d", len(body), maxSource*2+4096)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errf(CodeBadRequest, "malformed request: %v", err)
	}
	// Trailing garbage after the JSON document is a malformed request,
	// not silently ignored bytes.
	if dec.More() {
		return nil, errf(CodeBadRequest, "malformed request: trailing data after JSON document")
	}
	if !validTenant(req.Tenant) {
		return nil, errf(CodeBadRequest, "tenant name must be 1-%d chars of [a-zA-Z0-9._-], got %q", maxTenantLen, req.Tenant)
	}
	if req.Program == "" {
		req.Program = "prog.c"
	}
	if len(req.Program) > maxProgramLen {
		return nil, errf(CodeBadRequest, "program name exceeds %d bytes", maxProgramLen)
	}
	if req.Source == "" {
		return nil, errf(CodeBadRequest, "source is required")
	}
	if len(req.Source) > maxSource {
		return nil, errf(CodeSourceTooLarge, "source %d bytes exceeds limit %d", len(req.Source), maxSource)
	}
	if req.DeadlineMS < 0 {
		return nil, errf(CodeBadRequest, "deadline_ms must be non-negative, got %d", req.DeadlineMS)
	}
	// Compared in milliseconds: a count large enough overflows Duration
	// and would pass as a negative deadline.
	if req.DeadlineMS > maxDeadline.Milliseconds() {
		return nil, errf(CodeBadRequest, "deadline %dms exceeds maximum %v", req.DeadlineMS, maxDeadline)
	}

	o := req.Options
	strategy := o.Strategy
	if strategy == "" {
		strategy = "opt"
	}
	st, ok := cli.ParseStrategy(strategy)
	if !ok {
		return nil, errf(CodeBadRequest, "unknown strategy %q (sequential|inspector|unopt|opt)", o.Strategy)
	}
	var ablate core.PassSet
	if o.Ablate != "" {
		if err := ablate.Set(o.Ablate); err != nil {
			return nil, errf(CodeBadRequest, "ablate: %v", err)
		}
	}
	if o.Workers < 0 || o.Workers > maxWorkers {
		return nil, errf(CodeBadRequest, "workers must be 0-%d, got %d", maxWorkers, o.Workers)
	}
	if o.GPUMem < 0 || o.GPUMem > maxGPUMem {
		return nil, errf(CodeBadRequest, "gpu_mem_bytes must be 0-%d, got %d", maxGPUMem, o.GPUMem)
	}
	var spec *faultinject.Spec
	if o.Faults != "" {
		if len(o.Faults) > maxFaultsLen {
			return nil, errf(CodeBadRequest, "faults spec exceeds %d bytes", maxFaultsLen)
		}
		s, err := faultinject.ParseSpec(o.Faults)
		if err != nil {
			return nil, errf(CodeBadRequest, "faults: %v", err)
		}
		spec = s
	}
	req.opts = core.Options{
		Strategy:    st,
		Ablate:      ablate,
		Async:       o.Async,
		Workers:     o.Workers,
		GPUMemBytes: o.GPUMem,
		FaultSpec:   spec,
	}
	return &req, nil
}

// RunResponse is the success payload of one request. Everything under
// the deterministic section is bit-identical whether the run executed
// alone or under contention, cached or uncached, and under any injected
// fault schedule — the service's headline invariant, held by
// TestSubmitMatchesSolo.
type RunResponse struct {
	Tenant  string `json:"tenant"`
	Program string `json:"program"`

	// Cached reports a compilation-cache hit; QueueNS is the time the
	// request waited for a worker. Both are host-dependent and excluded
	// from Payload.
	Cached  bool  `json:"cached"`
	QueueNS int64 `json:"queue_ns"`

	Output       string           `json:"output"`
	OutputSHA256 string           `json:"output_sha256"`
	Exit         int64            `json:"exit"`
	Stats        machine.Stats    `json:"stats"`
	RTStats      runtimelib.Stats `json:"rt_stats"`
	Comm         trace.Ledger     `json:"comm"`
}

// Payload renders the deterministic portion of the response — output
// hash, exit, Stats, runtime Stats, and the communication ledger — as
// canonical JSON, the unit of the bit-identity invariant.
func (r *RunResponse) Payload() ([]byte, error) {
	return json.Marshal(struct {
		OutputSHA256 string           `json:"output_sha256"`
		Exit         int64            `json:"exit"`
		Stats        machine.Stats    `json:"stats"`
		RTStats      runtimelib.Stats `json:"rt_stats"`
		Comm         trace.Ledger     `json:"comm"`
	}{r.OutputSHA256, r.Exit, r.Stats, r.RTStats, r.Comm})
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error *Error `json:"error"`
	// Deadline carries the partial statistics of a deadline-aborted run.
	Deadline *DeadlineError `json:"deadline,omitempty"`
}

// hashOutput returns the hex SHA-256 of a run's output.
func hashOutput(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// newRunResponse assembles the response from a finished report.
func newRunResponse(req *RunRequest, rep *core.Report, cached bool, queueNS int64) *RunResponse {
	return &RunResponse{
		Tenant:       req.Tenant,
		Program:      req.Program,
		Cached:       cached,
		QueueNS:      queueNS,
		Output:       rep.Output,
		OutputSHA256: hashOutput(rep.Output),
		Exit:         rep.Exit,
		Stats:        rep.Stats,
		RTStats:      rep.RTStats,
		Comm:         rep.Comm,
	}
}
