package runtime_test

import (
	"fmt"
	"testing"

	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// BenchmarkMapReleaseCycle is the runtime layer's benchmark: unoptimized
// CGCM's cyclic pattern on one unit — map (device allocation and upload),
// launch, unmap (download), release (device free) — blocking and on
// streams, at three unit sizes. One machine and runtime serve all b.N
// iterations, as one Program.Run serves all of a program's launches. It
// uses only the exported API, so the same file measures any commit.
func BenchmarkMapReleaseCycle(b *testing.B) {
	for _, async := range []bool{false, true} {
		for _, size := range []int64{4 << 10, 64 << 10, 512 << 10} {
			mode := "sync"
			if async {
				mode = "async"
			}
			b.Run(fmt.Sprintf("%s/%dKiB", mode, size>>10), func(b *testing.B) {
				m := machine.New(machine.DefaultCostModel())
				rt := runtimelib.New(m)
				if async {
					rt.EnableAsync()
				}
				unit := rt.Malloc(size)
				cycle := func() {
					if _, err := rt.MapAsync(unit); err != nil {
						b.Fatal(err)
					}
					rt.KernelLaunched()
					m.LaunchKernelAt("k", 0, 64, 6400, 100, rt.TakeLaunchWaits()...)
					if err := rt.UnmapAsync(unit); err != nil {
						b.Fatal(err)
					}
					if err := rt.Release(unit); err != nil {
						b.Fatal(err)
					}
				}
				cycle() // warm: the first cycle makes whatever later ones reuse
				b.ReportAllocs()
				b.SetBytes(2 * size) // up and down
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}
