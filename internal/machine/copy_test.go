package machine

import (
	"errors"
	"testing"

	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

// copyVerbs are the six exported verbs that put bytes on the simulated
// bus. They share one mover and one charge routine, so one table pins all
// of them: which fault-plan verb each consults (if any), which direction
// it counts under, and whether it moves bytes at all.
var copyVerbs = []struct {
	name     string
	dir      trace.Kind
	consults bool // asks the fault plan (the rescue channel and the charge-only verb do not)
	moves    bool // copies bytes (the charge-only verb does not)
	call     func(m *Machine, s *Stream, host, dev uint64, n int64) error
}{
	{"CopyHtoD", trace.KindHtoD, true, true,
		func(m *Machine, _ *Stream, host, dev uint64, n int64) error { return m.CopyHtoD(dev, host, n) }},
	{"CopyDtoH", trace.KindDtoH, true, true,
		func(m *Machine, _ *Stream, host, dev uint64, n int64) error { return m.CopyDtoH(host, dev, n) }},
	{"CopyHtoDAsync", trace.KindHtoD, true, true,
		func(m *Machine, s *Stream, host, dev uint64, n int64) error {
			_, err := m.CopyHtoDAsync(s, dev, host, n)
			return err
		}},
	{"CopyDtoHAsync", trace.KindDtoH, true, true,
		func(m *Machine, s *Stream, host, dev uint64, n int64) error {
			_, err := m.CopyDtoHAsync(s, host, dev, n)
			return err
		}},
	{"RescueCopyDtoH", trace.KindDtoH, false, true,
		func(m *Machine, _ *Stream, host, dev uint64, n int64) error { return m.RescueCopyDtoH(host, dev, n) }},
	{"ChargeTransferUnit", trace.KindHtoD, false, false,
		func(m *Machine, _ *Stream, _, _ uint64, n int64) error {
			m.ChargeTransferUnit(trace.KindHtoD, n, "unit")
			return nil
		}},
}

// transferCounters is the part of Stats a copy may touch; InjectedFaults
// is deliberately absent (a fired fault is counted even though the copy
// failed).
func transferCounters(s Stats) Stats {
	return Stats{
		CommTime: s.CommTime, StallTime: s.StallTime, PenaltyTime: s.PenaltyTime,
		BytesHtoD: s.BytesHtoD, BytesDtoH: s.BytesDtoH, NumHtoD: s.NumHtoD, NumDtoH: s.NumDtoH,
		OverlappedBytes: s.OverlappedBytes, RescueCopies: s.RescueCopies,
	}
}

func TestCopyVerbTable(t *testing.T) {
	const size = 64
	const unmapped = 0x20 // inside the null guard: never allocated
	cases := []struct {
		name    string
		spec    string // fault spec
		mutate  func(dir trace.Kind, host, dev *uint64, n *int64)
		wantErr func(err error) bool
	}{
		{name: "success"},
		{name: "injected transient fault", spec: "htod@0,dtoh@0",
			wantErr: func(err error) bool {
				var de *faultinject.DeviceError
				return errors.As(err, &de) && de.Transient && de.Injected
			}},
		{name: "bad source",
			mutate: func(dir trace.Kind, host, dev *uint64, _ *int64) {
				if dir == trace.KindHtoD {
					*host = unmapped
				} else {
					*dev = unmapped
				}
			}},
		{name: "bad destination",
			mutate: func(dir trace.Kind, host, dev *uint64, _ *int64) {
				if dir == trace.KindHtoD {
					*dev = unmapped
				} else {
					*host = unmapped
				}
			}},
		{name: "copy past the end of the unit",
			mutate: func(_ trace.Kind, _, _ *uint64, n *int64) { *n = size + 1 }},
		{name: "negative byte count",
			mutate: func(_ trace.Kind, _, _ *uint64, n *int64) { *n = -1 }},
	}
	isFault := func(err error) bool {
		var f *Fault
		return errors.As(err, &f)
	}
	for _, v := range copyVerbs {
		for _, tc := range cases {
			if tc.mutate != nil && !v.moves {
				continue // no addresses to get wrong
			}
			t.Run(v.name+"/"+tc.name, func(t *testing.T) {
				m := New(DefaultCostModel())
				spec, err := faultinject.ParseSpec(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				plan := spec.NewPlan()
				m.SetFaultPlan(plan)
				s := m.NewStream("s")
				host, dev := m.Alloc(CPU, size, "host"), m.Alloc(GPU, size, "dev")
				src, dst := host, dev
				if v.dir == trace.KindDtoH {
					src, dst = dev, host
				}
				for i := uint64(0); i < size; i += 8 {
					m.Store(src+i, 8, 0xA5A5_0000+i)
					m.Store(dst+i, 8, 0x5A5A_0000+i)
				}
				h, d, n := host, dev, int64(size)
				if tc.mutate != nil {
					tc.mutate(v.dir, &h, &d, &n)
				}
				wantErr := tc.wantErr
				if tc.mutate != nil {
					wantErr = isFault
				}
				if !v.consults {
					if tc.spec != "" {
						wantErr = nil // the plan's fault is not theirs to take
					}
				}

				before := transferCounters(m.Stats())
				err = v.call(m, s, h, d, n)
				after := transferCounters(m.Stats())

				// The fault plan: exactly one decision, under the verb's own
				// direction, taken before any address is looked at — so a
				// schedule sees the same call sequence whichever verb (and
				// whichever outcome) it meets.
				own, other := faultinject.VerbHtoD, faultinject.VerbDtoH
				if v.dir == trace.KindDtoH {
					own, other = other, own
				}
				wantCalls := int64(0)
				if v.consults {
					wantCalls = 1
				}
				if got := plan.Calls(own); got != wantCalls {
					t.Errorf("fault plan consulted %d times for %s, want %d", got, own, wantCalls)
				}
				if got := plan.Calls(other); got != 0 {
					t.Errorf("fault plan consulted %d times for the opposite verb %s", got, other)
				}

				moved := true
				for i := uint64(0); i < size; i += 8 {
					got, _ := m.Load(dst+i, 8)
					switch got {
					case 0xA5A5_0000 + i:
					case 0x5A5A_0000 + i:
						moved = false
					default:
						t.Fatalf("destination word %d holds %#x: neither source nor original", i/8, got)
					}
				}

				if wantErr != nil {
					if err == nil || !wantErr(err) {
						t.Fatalf("err = %v (%T), want the case's typed error", err, err)
					}
					if after != before {
						t.Errorf("failed copy changed transfer counters:\nbefore %+v\nafter  %+v", before, after)
					}
					if moved {
						t.Error("failed copy moved bytes")
					}
					if len(m.clk.pending) != 0 {
						t.Error("failed copy left a pending stream op")
					}
					return
				}
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if moved != v.moves {
					t.Errorf("bytes moved = %v, want %v", moved, v.moves)
				}
				want := before
				if v.dir == trace.KindHtoD {
					want.BytesHtoD += size
					want.NumHtoD++
				} else {
					want.BytesDtoH += size
					want.NumDtoH++
				}
				// Time fields are pinned by the golden files; here only that
				// the copy was charged at all.
				if after.CommTime <= before.CommTime {
					t.Error("successful copy charged no CommTime")
				}
				if v.name == "RescueCopyDtoH" {
					want.RescueCopies++
					if after.PenaltyTime <= before.PenaltyTime {
						t.Error("rescue copy booked no PenaltyTime")
					}
				}
				want.CommTime, want.StallTime, want.PenaltyTime = after.CommTime, after.StallTime, after.PenaltyTime
				if after != want {
					t.Errorf("successful copy counters:\ngot  %+v\nwant %+v", after, want)
				}
			})
		}
	}
}

// TestBlockingIsNilStream: the blocking verbs are the stream verbs with no
// stream — same bytes, same counters, same clock.
func TestBlockingIsNilStream(t *testing.T) {
	run := func(viaStreamVerb bool) (Stats, float64) {
		m := New(DefaultCostModel())
		host, dev := m.Alloc(CPU, 4096, "host"), m.Alloc(GPU, 4096, "dev")
		m.CPUOps(1000)
		m.LaunchKernelAt("k", 0, 64000, 1000)
		var err1, err2 error
		if viaStreamVerb {
			_, err1 = m.CopyHtoDAsync(nil, dev, host, 4096, Event{t: 1}) // waits are ignored when blocking
			_, err2 = m.CopyDtoHAsync(nil, host, dev, 4096)
		} else {
			err1 = m.CopyHtoD(dev, host, 4096)
			err2 = m.CopyDtoH(host, dev, 4096)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(m.clk.pending) != 0 {
			t.Error("blocking copy left a pending stream op")
		}
		return m.Stats(), m.Now()
	}
	s1, t1 := run(false)
	s2, t2 := run(true)
	if s1 != s2 || t1 != t2 {
		t.Errorf("blocking verbs and nil-stream verbs disagree:\n%+v at %g\n%+v at %g", s1, t1, s2, t2)
	}
}
