package machine

import (
	"testing"

	"cgcm/internal/trace"
)

// newTestMachine allocates a machine with one host and one device
// buffer of n bytes, returning their base addresses.
func newTestMachine(n int64) (m *Machine, host, dev uint64) {
	m = New(DefaultCostModel())
	host = m.Alloc(CPU, n, "host")
	dev = m.Alloc(GPU, n, "dev")
	return m, host, dev
}

// TestAsyncCopyDoesNotStallCPU: the synchronous verb stalls the CPU for
// the full DMA; the async verb returns with the CPU clock unchanged and
// the copy pending on the stream.
func TestAsyncCopyDoesNotStallCPU(t *testing.T) {
	const n = 4096
	m, host, dev := newTestMachine(n)
	s := m.NewStream("h2d")
	before := m.clk.cpu
	ev, err := m.CopyHtoDAsync(s, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	if m.clk.cpu != before {
		t.Errorf("async copy advanced the CPU clock: %g -> %g", before, m.clk.cpu)
	}
	if len(m.clk.pending) != 1 {
		t.Errorf("pending copies = %d, want 1", len(m.clk.pending))
	}
	d := DefaultCostModel().TransferLat + float64(n)*DefaultCostModel().TransferPerB
	if got := ev.t; got != before+d {
		t.Errorf("event time = %g, want %g", got, before+d)
	}

	// The synchronous verb on a fresh machine pays the same DMA inline.
	m2, host2, dev2 := newTestMachine(n)
	if err := m2.CopyHtoD(dev2, host2, n); err != nil {
		t.Fatal(err)
	}
	if m2.clk.cpu < d {
		t.Errorf("sync copy did not pay the DMA inline: clock %g < %g", m2.clk.cpu, d)
	}
}

// TestStreamOccupancy: copies on one stream serialize; copies on two
// streams run concurrently.
func TestStreamOccupancy(t *testing.T) {
	const n = 1024
	m, host, dev := newTestMachine(4 * n)
	s := m.NewStream("h2d")
	e1, err := m.CopyHtoDAsync(s, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m.CopyHtoDAsync(s, dev+n, host+n, n)
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultCostModel().TransferLat + float64(n)*DefaultCostModel().TransferPerB
	if got, want := e2.t-e1.t, d; got != want {
		t.Errorf("same-stream copies overlap: gap %g, want %g", got, want)
	}
	s2 := m.NewStream("h2d2")
	e3, err := m.CopyHtoDAsync(s2, dev+2*n, host+2*n, n)
	if err != nil {
		t.Fatal(err)
	}
	if e3.t >= e2.t {
		t.Errorf("second stream serialized behind the first: %g >= %g", e3.t, e2.t)
	}
}

// TestEventOrdering: a wait event delays the dependent copy's start to
// the event's completion, exactly like cuStreamWaitEvent.
func TestEventOrdering(t *testing.T) {
	const n = 1024
	m, host, dev := newTestMachine(2 * n)
	a := m.NewStream("a")
	b := m.NewStream("b")
	e1, err := m.CopyHtoDAsync(a, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m.CopyHtoDAsync(b, dev+n, host+n, n, e1)
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultCostModel().TransferLat + float64(n)*DefaultCostModel().TransferPerB
	if got, want := e2.t, e1.t+d; got != want {
		t.Errorf("dependent copy completes at %g, want %g (after its wait)", got, want)
	}
	// The zero Event waits for nothing.
	e3, err := m.CopyHtoDAsync(m.NewStream("c"), dev, host, n, Event{})
	if err != nil {
		t.Fatal(err)
	}
	if e3.t != d {
		t.Errorf("zero-event wait delayed the copy: %g, want %g", e3.t, d)
	}
}

// TestAsyncBytesMoveEagerly: the data lands at issue time — a host read
// after an async DtoH sees the device bytes even before any sync point.
func TestAsyncBytesMoveEagerly(t *testing.T) {
	const n = 8
	m, host, dev := newTestMachine(n)
	if err := m.Store(dev, 8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	s := m.NewStream("d2h")
	if _, err := m.CopyDtoHAsync(s, host, dev, n); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(host, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xdeadbeef {
		t.Errorf("host read mid-flight = %#x, want 0xdeadbeef", got)
	}
}

// TestWaitHostUnit: a host access to a flushing unit pays the residual
// DMA wait; an access to an unrelated address pays nothing.
func TestWaitHostUnit(t *testing.T) {
	const n = 4096
	m, host, dev := newTestMachine(n)
	other := m.Alloc(CPU, 64, "other")
	s := m.NewStream("d2h")
	ev, err := m.CopyDtoHAsync(s, host, dev, n)
	if err != nil {
		t.Fatal(err)
	}
	m.WaitHostUnit(other) // unrelated: no stall
	if m.clk.cpu != 0 {
		t.Errorf("unrelated host access stalled the CPU to %g", m.clk.cpu)
	}
	m.WaitHostUnit(host + 128) // inside the flushing range: stall to completion
	if m.clk.cpu != ev.t {
		t.Errorf("host access to flushing unit stalled to %g, want %g", m.clk.cpu, ev.t)
	}
	if len(m.clk.pending) != 0 {
		t.Errorf("flush still pending after WaitHostUnit")
	}
}

// TestSyncDrainsStreams: Sync waits for the last pending copy and
// credits its pre-sync portion as overlapped bytes.
func TestSyncDrainsStreams(t *testing.T) {
	const n = 4096
	m, host, dev := newTestMachine(n)
	s := m.NewStream("h2d")
	ev, err := m.CopyHtoDAsync(s, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	m.CPUOps(1000) // host work overlapping the DMA
	m.Sync()
	if len(m.clk.pending) != 0 {
		t.Errorf("pending copies after Sync: %d", len(m.clk.pending))
	}
	if m.clk.cpu < ev.t {
		t.Errorf("Sync did not reach the copy's completion: %g < %g", m.clk.cpu, ev.t)
	}
	st := m.Stats()
	if st.OverlappedBytes <= 0 || st.OverlappedBytes > n {
		t.Errorf("overlapped bytes = %d, want in (0, %d]", st.OverlappedBytes, n)
	}
}

// TestLaunchWaitsResolveOverlap: a kernel launch that waits on an
// upload event starts after it, and the copy time that ran under the
// launch latency counts as overlapped.
func TestLaunchWaitsResolveOverlap(t *testing.T) {
	const n = 65536
	m, host, dev := newTestMachine(n)
	s := m.NewStream("h2d")
	ev, err := m.CopyHtoDAsync(s, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	m.LaunchKernelAt("k", 1, 1000, 40, ev)
	if len(m.clk.pending) != 0 {
		t.Error("launch wait did not resolve the pending upload")
	}
	st := m.Stats()
	if st.NumKernels != 1 {
		t.Errorf("kernels = %d", st.NumKernels)
	}
	// The GPU timeline must not start the kernel before the upload landed.
	if gp := m.GPUReadyEvent().t; gp <= ev.t {
		t.Errorf("kernel finished at %g, at or before its input landed (%g)", gp, ev.t)
	}
}

// TestFreeWaitsForInFlightDMA: freeing memory under an in-flight copy
// stalls until the DMA completes instead of reclaiming it mid-transfer.
func TestFreeWaitsForInFlightDMA(t *testing.T) {
	const n = 4096
	m, host, dev := newTestMachine(n)
	s := m.NewStream("d2h")
	ev, err := m.CopyDtoHAsync(s, host, dev, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(CPU, host); err != nil {
		t.Fatal(err)
	}
	if m.clk.cpu < ev.t {
		t.Errorf("Free reclaimed the host range mid-DMA: clock %g < %g", m.clk.cpu, ev.t)
	}
}

// TestStreamTraceLanes: each stream's copies land on its own lane, the
// issue instant lands on the CPU lane, and the two share a flow id.
func TestStreamTraceLanes(t *testing.T) {
	const n = 1024
	m, host, dev := newTestMachine(n)
	m.KeepLog()
	s := m.NewStream("h2d")
	if _, err := m.CopyHtoDAsync(s, dev, host, n); err != nil {
		t.Fatal(err)
	}
	m.Sync()
	spans := trace.Spans(m.Log())
	var issue, copySpan *trace.Span
	for i, sp := range spans {
		switch sp.Kind {
		case trace.KindIssue:
			issue = &spans[i]
		case trace.KindHtoD:
			copySpan = &spans[i]
		}
	}
	if issue == nil || copySpan == nil {
		t.Fatalf("missing spans: issue=%v copy=%v", issue, copySpan)
	}
	if issue.Lane != trace.LaneCPU {
		t.Errorf("issue instant on lane %v, want CPU", issue.Lane)
	}
	if copySpan.Lane != trace.LaneStreamBase {
		t.Errorf("copy span on lane %v, want first stream lane", copySpan.Lane)
	}
	if issue.Flow == 0 || issue.Flow != copySpan.Flow {
		t.Errorf("flow ids: issue %d, copy %d (want equal, nonzero)", issue.Flow, copySpan.Flow)
	}
}
