package trace

import (
	"strings"
	"testing"
)

// fold books one runtime-library event about the unit at base.
func fold(b *LedgerBuilder, kind EventKind, base uint64, name string, size int64, epoch uint64, copied bool) {
	b.Fold(&Event{Kind: kind, Base: base, Unit: name, Size: size, Epoch: epoch, Copied: copied}, 0)
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Span{Kind: KindCPU})
	tr.RecordPhases(PhaseSpan{Name: "x"})
	tr.Merge(New())
	if tr.Spans() != nil || tr.Phases() != nil {
		t.Fatal("nil tracer returned data")
	}
	var b *LedgerBuilder
	fold(b, EvMap, 1, "u", 8, 0, true)
	fold(b, EvUnmap, 1, "u", 8, 0, true)
	fold(b, EvRelease, 1, "u", 8, 0, false)
	fold(b, EvUpload, 1, "u", 8, 0, true)
	if got := b.Ledger(); len(got.Units) != 0 {
		t.Fatal("nil builder produced units")
	}
}

func TestTracerEpochStamping(t *testing.T) {
	spans := Spans([]Event{
		{Kind: EvHtoD},
		{Kind: EvRetry, Epoch: 1}, // a tally, not a span
		{Kind: EvCall, Label: "cgcm.map", Line: 3, Dur: 1e-6, Epoch: 1},
		{Kind: EvLineOps, Lane: LaneGPU, Label: "k", Line: 3, KernelLine: 4, Ops: 9, Epoch: 1},
		{Kind: EvKernel, Epoch: 2},
	})
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Epoch != 0 || spans[1].Epoch != 2 {
		t.Errorf("epochs = %d, %d; want 0, 2", spans[0].Epoch, spans[1].Epoch)
	}
}

func TestTracerMerge(t *testing.T) {
	sink, run := New(), New()
	run.Emit(Span{Kind: KindCPU})
	run.RecordPhases(PhaseSpan{Name: "parse"})
	sink.Merge(run)
	sink.Merge(sink) // self-merge is a no-op, not a duplication
	if len(sink.Spans()) != 1 || len(sink.Phases()) != 1 {
		t.Errorf("merge: %d spans, %d phases", len(sink.Spans()), len(sink.Phases()))
	}
}

// TestLedgerCyclicClassification: map/unmap/release around every launch
// (the unoptimized pattern) must classify as cyclic.
func TestLedgerCyclicClassification(t *testing.T) {
	b := NewLedgerBuilder()
	for epoch := uint64(0); epoch < 4; epoch++ {
		fold(b, EvMap, 0x1000, "malloc", 8192, epoch, true)
		fold(b, EvUnmap, 0x1000, "malloc", 8192, epoch+1, true)
		fold(b, EvRelease, 0x1000, "malloc", 8192, 0, false)
	}
	l := b.Ledger()
	if len(l.Units) != 1 {
		t.Fatalf("units = %d", len(l.Units))
	}
	u := l.Units[0]
	if u.Pattern != PatternCyclic {
		t.Errorf("pattern = %s, want cyclic (%+v)", u.Pattern, u)
	}
	if u.RoundTrips != 3 {
		t.Errorf("round trips = %d, want 3", u.RoundTrips)
	}
	if u.HtoDCopies != 4 || u.DtoHCopies != 4 {
		t.Errorf("copies = %d/%d, want 4/4", u.HtoDCopies, u.DtoHCopies)
	}
	if l.Cyclic() != 1 || l.Acyclic() != 0 {
		t.Errorf("ledger counts: cyclic %d acyclic %d", l.Cyclic(), l.Acyclic())
	}
}

// TestLedgerAcyclicClassification: one upload, resident across many
// launches (residency skips), one copy-back — the optimized pattern.
func TestLedgerAcyclicClassification(t *testing.T) {
	b := NewLedgerBuilder()
	fold(b, EvMap, 0x1000, "malloc", 8192, 0, true)
	for epoch := uint64(1); epoch < 5; epoch++ {
		fold(b, EvMap, 0x1000, "malloc", 8192, epoch, false)   // residency skip
		fold(b, EvUnmap, 0x1000, "malloc", 8192, epoch, false) // epoch skip
	}
	fold(b, EvUnmap, 0x1000, "malloc", 8192, 5, true)
	fold(b, EvRelease, 0x1000, "malloc", 8192, 0, false)
	l := b.Ledger()
	u := l.Units[0]
	if u.Pattern != PatternAcyclic {
		t.Errorf("pattern = %s, want acyclic (%+v)", u.Pattern, u)
	}
	if u.ResidencySkips != 4 || u.EpochSkips != 4 {
		t.Errorf("skips = %d/%d, want 4/4", u.ResidencySkips, u.EpochSkips)
	}
	if u.RoundTrips != 0 {
		t.Errorf("round trips = %d, want 0", u.RoundTrips)
	}
}

// TestLedgerNonePattern: a unit that is only released (or never copied)
// classifies as none.
func TestLedgerNonePattern(t *testing.T) {
	b := NewLedgerBuilder()
	fold(b, EvMap, 0x2000, "ro", 64, 0, false)
	l := b.Ledger()
	if got := l.Units[0].Pattern; got != PatternNone {
		t.Errorf("pattern = %s, want none", got)
	}
}

// TestLedgerTransferEpochs: a unit's transfer epochs are the distinct
// epochs its copies fell in, counted as the events arrive (in epoch
// order) with no set of epochs kept; only uploads here, so three epochs
// alone make a unit cyclic.
func TestLedgerTransferEpochs(t *testing.T) {
	type ev struct {
		kind   EventKind
		epoch  uint64
		copied bool
	}
	for _, c := range []struct {
		name    string
		evs     []ev
		epochs  int
		pattern Pattern
	}{
		{"two copies in one epoch", []ev{{EvMap, 2, true}, {EvUpload, 2, true}}, 1, PatternAcyclic},
		{"copies in epochs 1, 1, 2, 4", []ev{{EvMap, 1, true}, {EvUpload, 1, true}, {EvMap, 2, true}, {EvMap, 4, true}}, 3, PatternCyclic},
		{"maps but no copies", []ev{{EvMap, 0, false}, {EvMap, 1, false}, {EvUnmap, 1, false}}, 0, PatternNone},
	} {
		b := NewLedgerBuilder()
		for _, e := range c.evs {
			fold(b, e.kind, 0x1000, "malloc", 64, e.epoch, e.copied)
		}
		u := b.Ledger().Units[0]
		if u.TransferEpochs != c.epochs || u.Pattern != c.pattern {
			t.Errorf("%s: %d transfer epochs, %s; want %d, %s", c.name, u.TransferEpochs, u.Pattern, c.epochs, c.pattern)
		}
	}
}

func TestLedgerRenderAndUnit(t *testing.T) {
	b := NewLedgerBuilder()
	fold(b, EvMap, 0x3000, "a", 128, 0, true)
	fold(b, EvUpload, 0x4000, "b", 256, 1, true)
	l := b.Ledger()
	if l.Unit("b") == nil || l.Unit("b").BytesHtoD != 256 {
		t.Errorf("Unit lookup failed: %+v", l.Unit("b"))
	}
	if l.Unit("nope") != nil {
		t.Error("Unit returned a row for an unknown name")
	}
	s := l.String()
	for _, want := range []string{"a@0x3000", "b@0x4000", "acyclic"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestPassThroughSumsAndSorting(t *testing.T) {
	b := NewLedgerBuilder()
	fold(b, EvMap, 0x9000, "z", 8, 0, true)
	fold(b, EvMap, 0x1000, "a", 8, 0, true)
	fold(b, EvUnmap, 0x9000, "z", 8, 1, true)
	fold(b, EvMap, 0x9000, "z", 8, 2, true) // round trip
	l := b.Ledger()
	if l.Units[0].Name != "a" || l.Units[1].Name != "z" {
		t.Errorf("units not in address order: %+v", l.Units)
	}
	if l.RoundTrips() != 1 {
		t.Errorf("RoundTrips = %d", l.RoundTrips())
	}
}
