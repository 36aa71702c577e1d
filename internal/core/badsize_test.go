package core_test

import (
	"errors"
	"strings"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// negativeSizePrograms each hand an impossible byte count to an allocator
// or a copy verb: negative, or (the 1<<62 rows) larger than the simulated
// address space. Such a count used to reach make([]byte, n) in the machine
// and kill the process; it is tenant input, so it must end in a typed run
// error instead.
var negativeSizePrograms = []struct{ name, src, want string }{
	{"realloc", `
int main() {
	int *p = (int*)malloc(64);
	p = (int*)realloc(p, -5);
	print_int(1);
	return 0;
}`, "negative size"},
	{"cuda_memcpy_h2d", `
int main() {
	int *p = (int*)malloc(64);
	int *d = (int*)cuda_malloc(64);
	cuda_memcpy_h2d(d, p, -1);
	print_int(1);
	return 0;
}`, "negative size"},
	{"malloc", `
int main() {
	int *p = (int*)malloc(-8);
	p[0] = 3;
	print_int(p[0]);
	return 0;
}`, "unmapped address"}, // malloc returned NULL; the store faults
	{"malloc_1<<62", `
int main() {
	long n = 1;
	n = n << 62;
	char *p = (char*)malloc(n);
	p[0] = 3;
	print_int(p[0]);
	return 0;
}`, "unmapped address"}, // NULL again
	{"calloc_1<<62", `
int main() {
	long n = 1;
	n = n << 31;
	char *p = (char*)calloc(n, n);
	print_int(1);
	return 0;
}`, "size exceeds the address space"},
	{"realloc_1<<62", `
int main() {
	long n = 1;
	n = n << 62;
	char *p = (char*)malloc(64);
	p = (char*)realloc(p, n);
	print_int(1);
	return 0;
}`, "size exceeds the address space"},
	{"cuda_malloc_1<<62", `
int main() {
	long n = 1;
	n = n << 62;
	char *d = (char*)cuda_malloc(n);
	print_int(1);
	return 0;
}`, "do not fit in the device address space"},
}

func TestNegativeSizesAreTypedErrors(t *testing.T) {
	for _, tc := range negativeSizePrograms {
		for _, strat := range []core.Strategy{core.Sequential, core.CGCMUnoptimized, core.CGCMOptimized} {
			t.Run(tc.name+"/"+strat.String(), func(t *testing.T) {
				rep, err := core.CompileAndRun(tc.name+".c", tc.src, core.Options{Strategy: strat})
				if err == nil {
					t.Fatalf("run succeeded, output %q", rep.Output)
				}
				var ie *interp.Error
				if !errors.As(err, &ie) {
					t.Fatalf("error is %T, want a wrapped *interp.Error: %v", err, err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	}
}

// typedErrorPrograms each fail with a typed cause that core.Run's error
// must wrap. The first three hand the address of a stack variable to free
// or realloc. Only heap units may be freed: the runtime used to free the
// frame's unit, so the first program ran on and exited 0 and the second
// read its own local as an unmapped address. The last row's cuda_memcpy
// reads past its unit, a machine fault.
var typedErrorPrograms = []struct {
	name, src string
	cause     func(error) bool
}{
	{"free_array", `
int main() {
	int x[4];
	x[0] = 7;
	free(x);
	print_int(1);
	return 0;
}`, notHeapUnit},
	{"free_scalar", `
int main() {
	int x = 7;
	int *p = &x;
	free(p);
	print_int(*p);
	return 0;
}`, notHeapUnit},
	{"realloc_scalar", `
int main() {
	int x = 7;
	int *p = (int*)realloc(&x, 64);
	print_int(p[0]);
	return 0;
}`, notHeapUnit},
	{"cuda_memcpy_overrun", `
int main() {
	int *p = (int*)malloc(64);
	int *d = (int*)cuda_malloc(128);
	cuda_memcpy_h2d(d, p, 128);
	return 0;
}`, func(err error) bool { var f *machine.Fault; return errors.As(err, &f) }},
}

func notHeapUnit(err error) bool { return errors.Is(err, runtimelib.ErrNotHeapUnit) }

func TestFreeOfAStackVariableIsATypedError(t *testing.T) {
	for _, tc := range typedErrorPrograms {
		for _, strat := range []core.Strategy{core.Sequential, core.CGCMUnoptimized, core.CGCMOptimized} {
			t.Run(tc.name+"/"+strat.String(), func(t *testing.T) {
				rep, err := core.CompileAndRun(tc.name+".c", tc.src, core.Options{Strategy: strat})
				if err == nil {
					t.Fatalf("run succeeded, output %q", rep.Output)
				}
				var ie *interp.Error
				if !errors.As(err, &ie) {
					t.Fatalf("error is %T, want a wrapped *interp.Error: %v", err, err)
				}
				if !tc.cause(err) {
					t.Errorf("error %q does not wrap its typed cause", err)
				}
			})
		}
	}
}
