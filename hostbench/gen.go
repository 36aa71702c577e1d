package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The benchmark-owned programs. Every generator is byte-deterministic
// for its seed and emits only plain loops (no __global__ kernels), so the
// program runs under all four strategies and sequential is its oracle.
//
// The workloads call the generators with progSeed, a constant: the
// goldens in testdata/golden.json pin the simulated statistics of each
// class, so the programs a class runs may not change with -seed. The run
// seed reaches only coldVariant and the round permutations.
const progSeed = 1

// genLoopGroups emits n independent loop groups in main. Each group is
// two heap arrays, an init loop, and a 3-trip timestep loop around two
// DOALL loops, followed by a host read — 3 kernels and ~330 bytes per
// group. The suite's programs top out at 2.5 KB; this one grows without
// bound, which is what exposes per-function analysis cost in the passes.
func genLoopGroups(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "// gen%d: %d independent loop groups (seed %d).\n", n, n, seed)
	b.WriteString("int main() {\n\tfloat sum = 0.0;\n")
	for g := 0; g < n; g++ {
		size := 16 + 8*rng.Intn(3)
		mod := 3 + rng.Intn(6)
		c1 := 0.25 * float64(1+rng.Intn(7))
		c2 := 0.5 * float64(1+rng.Intn(5))
		pick := rng.Intn(size)
		fmt.Fprintf(&b, "\tfloat *a%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfloat *b%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfor (int i = 0; i < %d; i++) a%d[i] = (float)(i %% %d) * %.2f;\n", size, g, mod, c1)
		b.WriteString("\tfor (int t = 0; t < 3; t++) {\n")
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) b%d[i] = a%d[i] * %.2f + %.2f;\n", size, g, g, c1, c2)
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) a%d[i] = b%d[i] * 0.5;\n", size, g, g)
		b.WriteString("\t}\n")
		fmt.Fprintf(&b, "\tsum += a%d[%d];\n", g, pick)
		fmt.Fprintf(&b, "\tfree(a%d); free(b%d);\n", g, g)
	}
	b.WriteString("\tprint_float(sum);\n\treturn 0;\n}\n")
	return b.String()
}

// genPingPong emits a cyclic program that is almost all communication:
// two 512 KiB heap units cross the bus around each of `launches` tiny
// kernels, and the host reads one element between launches, so nothing
// may stay resident.
func genPingPong(launches int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	threads := 16 + 16*rng.Intn(2)
	c := 0.5 * float64(1+rng.Intn(4))
	return fmt.Sprintf(`// pingpong: two 512 KiB units, %[1]d launches, a host read between launches (seed %[4]d).
int main() {
	float *a = (float*)calloc(65536, 8);
	float *b = (float*)calloc(65536, 8);
	for (int i = 0; i < %[2]d; i++) a[i] = (float)i;
	float sum = 0.0;
	for (int t = 0; t < %[1]d; t++) {
		for (int i = 0; i < %[2]d; i++) b[i] = a[i] + %.2[3]f;
		sum += b[t %% %[2]d];
		a[t %% %[2]d] = sum;
	}
	print_float(sum);
	free(a); free(b);
	return 0;
}
`, launches, threads, c, seed)
}

// genJagged emits an array of `rows` row pointers summed row by row in
// a DOALL loop: the MapArray/UnmapArray path, and more live units per
// kernel than the interpreter's 4-entry segment cache holds.
func genJagged(rows, steps int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	width := 8 + 4*rng.Intn(3)
	mod := 5 + rng.Intn(5)
	return fmt.Sprintf(`// jagged: %[1]d row pointers of %[2]d floats, %[3]d sweeps (seed %[5]d).
int main() {
	float **rows = (float**)malloc(%[1]d * 8);
	for (int i = 0; i < %[1]d; i++) {
		float *r = (float*)malloc(%[2]d * 8);
		for (int j = 0; j < %[2]d; j++) r[j] = (float)((i + j) %% %[4]d);
		rows[i] = r;
	}
	float *out = (float*)malloc(%[1]d * 8);
	float sum = 0.0;
	for (int t = 0; t < %[3]d; t++) {
		for (int i = 0; i < %[1]d; i++) {
			float *row = rows[i];
			float s = 0.0;
			for (int j = 0; j < %[2]d; j++) s += row[j];
			out[i] = s;
		}
		sum += out[t %% %[1]d];
	}
	print_float(sum);
	for (int i = 0; i < %[1]d; i++) free(rows[i]);
	free(rows); free(out);
	return 0;
}
`, rows, width, steps, mod, seed)
}

// genManyUnits emits `units` small heap units that stay live while
// `launches` tiny kernels run over two other arrays, so every Map, Unmap
// and Release walks a deep allocation tree.
func genManyUnits(units, launches int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	n := 16 + 16*rng.Intn(2)
	c := 0.25 * float64(1+rng.Intn(6))
	return fmt.Sprintf(`// manyunits: %[1]d live 16-byte units under %[2]d launches (seed %[5]d).
int main() {
	float **keep = (float**)malloc(%[1]d * 8);
	for (int i = 0; i < %[1]d; i++) {
		float *u = (float*)malloc(16);
		u[0] = (float)i;
		keep[i] = u;
	}
	float *x = (float*)malloc(%[3]d * 8);
	float *y = (float*)malloc(%[3]d * 8);
	for (int i = 0; i < %[3]d; i++) x[i] = (float)i;
	float sum = 0.0;
	for (int t = 0; t < %[2]d; t++) {
		for (int i = 0; i < %[3]d; i++) y[i] = x[i] * %.2[4]f;
		sum += y[t %% %[3]d];
	}
	float *last = keep[%[1]d - 1];
	print_float(sum + last[0]);
	for (int i = 0; i < %[1]d; i++) free(keep[i]);
	free(keep); free(x); free(y);
	return 0;
}
`, units, launches, n, c, seed)
}

// genTiny emits variant v of the ~0.3 ms three-loop program that makes
// a request's fixed cost visible on serve_mixed.
func genTiny(v int, seed int64) string {
	rng := rand.New(rand.NewSource(seed + int64(v)*7919))
	n := 48 + 8*(v%4)
	mod := 3 + rng.Intn(7)
	c := 0.5 * float64(1+rng.Intn(6))
	return fmt.Sprintf(`// tiny%[1]d: three loops over %[2]d floats (seed %[5]d).
int main() {
	float *a = (float*)malloc(%[2]d * 8);
	for (int i = 0; i < %[2]d; i++) a[i] = (float)(i %% %[3]d);
	for (int i = 0; i < %[2]d; i++) a[i] = a[i] * %.2[4]f + 1.0;
	float s = 0.0;
	for (int i = 0; i < %[2]d; i++) s += a[i];
	print_float(s);
	free(a);
	return 0;
}
`, v, n, mod, c, seed)
}

// coldVariant perturbs src only by a trailing comment, so a compile
// cache keyed on source text misses while tokens, IR, output and every
// simulated statistic stay those of src.
func coldVariant(src string, nonce uint64) string {
	return fmt.Sprintf("%s// cold %016x\n", src, nonce)
}
