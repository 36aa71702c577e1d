// Package bench contains mini-C ports of the paper's 24 benchmark
// programs (PolyBench, Rodinia, StreamIt, PARSEC) and the evaluation
// harness that regenerates the paper's tables and figures.
//
// Problem sizes are scaled so the interpreted suite runs in seconds; the
// simulated timing model — not wall-clock — produces the reported
// numbers, so the performance shapes are unaffected by interpreter speed.
// Each port preserves the loop and communication structure of the
// original: which loops are DOALL, which data crosses the CPU-GPU
// boundary per iteration, and what CPU work sits between kernel launches.
package bench

import (
	"fmt"
	"strings"
)

// Program is one benchmark.
type Program struct {
	Name  string
	Suite string
	// Source is the mini-C program text. Every program prints a checksum
	// so the harness can validate all strategies against sequential.
	Source string

	// Paper-reported characteristics (Table 3) for comparison.
	PaperKernels   int     // GPU kernels created by the DOALL parallelizer
	PaperIE        int     // kernels the inspector-executor technique handles
	PaperNR        int     // kernels the named-regions technique handles
	PaperLimiting  string  // "GPU", "Comm.", or "Other"
	PaperUnoptGPU  float64 // % of total time in GPU execution, unoptimized
	PaperOptGPU    float64
	PaperUnoptComm float64
	PaperOptComm   float64
}

// All returns the full 24-program suite in the paper's Table 3 order.
func All() []Program {
	var out []Program
	out = append(out, PolyBench()...)
	out = append(out, Rodinia()...)
	out = append(out, Others()...)
	return out
}

// ByName returns the named program.
func ByName(name string) (Program, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// LoopGroups emits n independent loop groups in main — two heap arrays,
// an init loop, a 3-trip timestep loop around two DOALL loops, a host
// read: three kernels and five loops per group, the shape hostbench's
// gen8/16/32 classes compile. The compiler's tests and benchmarks grow
// it without bound to expose passes whose cost is not linear.
func LoopGroups(n int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tfloat sum = 0.0;\n")
	for g := 0; g < n; g++ {
		size := 16 + 8*(g%3)
		fmt.Fprintf(&b, "\tfloat *a%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfloat *b%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfor (int i = 0; i < %d; i++) a%d[i] = (float)(i %% %d) * 0.25;\n", size, g, 3+g%6)
		b.WriteString("\tfor (int t = 0; t < 3; t++) {\n")
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) b%d[i] = a%d[i] * 0.75 + %d.5;\n", size, g, g, g%5)
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) a%d[i] = b%d[i] * 0.5;\n", size, g, g)
		fmt.Fprintf(&b, "\t}\n\tsum += a%d[%d];\n\tfree(a%d); free(b%d);\n", g, g%size, g, g)
	}
	b.WriteString("\tprint_float(sum);\n\treturn 0;\n}\n")
	return b.String()
}
