package runtime

import (
	"errors"
	"math"
	"testing"
)

// TestErrorTaxonomy pins the typed-error contract of the runtime API:
// every misuse returns an *Error wrapping the documented sentinel, so
// callers can dispatch with errors.Is instead of string matching.
func TestErrorTaxonomy(t *testing.T) {
	tests := []struct {
		name string
		call func(rt *Runtime) error
		want error
	}{
		{
			name: "free of never-allocated pointer",
			call: func(rt *Runtime) error { return rt.Free(0xdead0) },
			want: ErrUnknownPointer,
		},
		{
			name: "double free",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				if err := rt.Free(p); err != nil {
					return err
				}
				return rt.Free(p)
			},
			want: ErrDoubleFree,
		},
		{
			name: "free of a global",
			call: func(rt *Runtime) error {
				base := rt.M.Alloc(0, 64, "g") // machine.CPU
				rt.DeclareGlobal("g", base, 64, false, 0)
				return rt.Free(base)
			},
			want: ErrNotHeapUnit,
		},
		{
			name: "realloc of interior pointer",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				_, err := rt.Realloc(p+8, 128)
				return err
			},
			want: ErrNotHeapUnit,
		},
		{
			name: "map of untracked pointer",
			call: func(rt *Runtime) error {
				_, err := rt.Map(0xdead0)
				return err
			},
			want: ErrUnknownPointer,
		},
		{
			// Unmap with a matching epoch is a legal skip; the error fires
			// when a copy-back is due but the unit has no device copy.
			name: "unmap needing copy-back without device copy",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				rt.KernelLaunched()
				return rt.Unmap(p)
			},
			want: ErrNotMapped,
		},
		{
			name: "release without map",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				return rt.Release(p)
			},
			want: ErrUnbalancedRelease,
		},
		{
			name: "release past zero",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				if _, err := rt.Map(p); err != nil {
					return err
				}
				if err := rt.Release(p); err != nil {
					return err
				}
				return rt.Release(p)
			},
			want: ErrUnbalancedRelease,
		},
		{
			name: "unmapArray without map",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				return rt.UnmapArray(p)
			},
			want: ErrNotMapped,
		},
		{
			name: "releaseArray without map",
			call: func(rt *Runtime) error {
				p := rt.Malloc(64)
				return rt.ReleaseArray(p)
			},
			want: ErrUnbalancedRelease,
		},
		{
			name: "calloc negative count",
			call: func(rt *Runtime) error {
				_, err := rt.Calloc(-1, 8)
				return err
			},
			want: ErrBadSize,
		},
		{
			name: "realloc to a negative size",
			call: func(rt *Runtime) error {
				_, err := rt.Realloc(rt.Malloc(64), -5)
				return err
			},
			want: ErrBadSize,
		},
		{
			name: "realloc of NULL to a negative size",
			call: func(rt *Runtime) error {
				_, err := rt.Realloc(0, -1)
				return err
			},
			want: ErrBadSize,
		},
		{
			// The element's sentinel must survive mapArray's wrapping.
			name: "mapArray with a dangling element pointer",
			call: func(rt *Runtime) error {
				_, err := rt.MapArray(danglingArray(rt))
				return err
			},
			want: ErrUnknownPointer,
		},
		{
			name: "calloc overflow",
			call: func(rt *Runtime) error {
				_, err := rt.Calloc(math.MaxInt64/2, 4)
				return err
			},
			want: ErrBadSize,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := newRT()
			err := tc.call(rt)
			if err == nil {
				t.Fatalf("misuse succeeded, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
			var re *Error
			if !errors.As(err, &re) {
				t.Fatalf("error is not a *runtime.Error: %T", err)
			}
			if re.Op == "" {
				t.Error("runtime.Error carries no operation name")
			}
		})
	}
}

// TestErrorSentinelsAreDistinct guards against two sentinels aliasing:
// each misuse must match exactly its own class.
func TestErrorSentinelsAreDistinct(t *testing.T) {
	rt, _ := newRT()
	p := rt.Malloc(64)
	if err := rt.Free(p); err != nil {
		t.Fatal(err)
	}
	err := rt.Free(p)
	for _, wrong := range []error{ErrUnknownPointer, ErrNotHeapUnit, ErrUnbalancedRelease, ErrNotMapped, ErrBadSize} {
		if errors.Is(err, wrong) {
			t.Errorf("double free matches %v", wrong)
		}
	}
	if !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free does not match ErrDoubleFree: %v", err)
	}
}

// danglingArray builds a two-element pointer array whose first element is
// a live heap unit and whose second points at a unit already freed.
func danglingArray(rt *Runtime) uint64 {
	arr, live, dead := rt.Malloc(16), rt.Malloc(8), rt.Malloc(8)
	rt.M.Store(arr, 8, live)
	rt.M.Store(arr+8, 8, dead)
	if err := rt.Free(dead); err != nil {
		panic(err)
	}
	return arr
}

// TestMapArrayFailureReleasesElements: when an element fails to map, no
// shadow is registered, so nothing could ever release the elements mapped
// before it — MapArray must drop their references and device copies
// itself.
func TestMapArrayFailureReleasesElements(t *testing.T) {
	rt, m := newRT()
	arr := danglingArray(rt)
	if _, err := rt.MapArray(arr); err == nil {
		t.Fatal("mapArray of a dangling element succeeded")
	}
	live, _ := m.Load(arr, 8)
	info := rt.Lookup(live)
	if info.RefCount != 0 || info.DevPtr != 0 {
		t.Errorf("mapped element leaked: RefCount=%d DevPtr=%#x", info.RefCount, info.DevPtr)
	}
	if used := m.GPUMemUsed(); used != 0 {
		t.Errorf("%d device bytes still allocated after the failed mapArray", used)
	}
	if err := rt.ReleaseArray(arr); !errors.Is(err, ErrUnbalancedRelease) {
		t.Errorf("failed mapArray left a shadow behind: releaseArray = %v", err)
	}
}
