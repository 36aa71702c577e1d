package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cgcm/internal/bench"
)

// freezeGoldens regenerates testdata/golden.json from the current tree.
// It is run once per re-freeze, from the repository root, never by the
// benchmark: where BENCH_0.json (sync) and BENCH_1.json (async) hold a
// row for the same program and strategy, the frozen simulated wall and
// transfer totals must equal it, so the goldens inherit the simulated
// clock's own gate instead of trusting this run.
func freezeGoldens(log io.Writer) error {
	runKeys, compileKeys := goldenKeys()
	g := goldens{Schema: goldenSchema, Run: map[string]runGolden{}, Compile: map[string]compileGolden{}}
	for _, key := range runKeys {
		p, err := compileKey(key)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		rep, err := p.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if g.Run[key], err = resultOf(rep).golden(); err != nil {
			return err
		}
	}
	for _, key := range compileKeys {
		p, err := compileKey(key)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		g.Compile[key] = compileGoldenOf(p)
	}
	checked, err := crossCheck(&g)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	const path = "hostbench/testdata/golden.json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "froze %d run and %d compile goldens to %s; %d cross-checked against BENCH_0.json and BENCH_1.json\n",
		len(g.Run), len(g.Compile), path, checked)
	return nil
}

// crossCheck compares the run goldens to the simulated-clock baselines.
func crossCheck(g *goldens) (int, error) {
	sync, err := bench.ReadBaseline("BENCH_0.json")
	if err != nil {
		return 0, err
	}
	async, err := bench.ReadBaseline("BENCH_1.json")
	if err != nil {
		return 0, err
	}
	rows := func(b *bench.Baseline) map[string]bench.BaselineRow {
		m := map[string]bench.BaselineRow{}
		for _, r := range b.Rows {
			m[r.Program] = r
		}
		return m
	}
	syncRows, asyncRows := rows(sync), rows(async)
	checked := 0
	for key, gold := range g.Run {
		program, config := splitKey(key)
		var wall float64
		var bytes, copies int64 = -1, -1
		switch config {
		case "sequential":
			wall = syncRows[program].WallSeq
		case "unopt":
			r := syncRows[program]
			wall, bytes, copies = r.WallUn, r.XferBytesUn, r.XferCopiesUn
		case "opt":
			r := syncRows[program]
			wall, bytes, copies = r.WallOpt, r.XferBytesOpt, r.XferCopiesOpt
		case "unopt-async":
			r := asyncRows[program]
			wall, bytes, copies = r.WallUn, r.XferBytesUn, r.XferCopiesUn
		}
		if wall == 0 {
			continue // a benchmark-owned program or a configuration the baselines do not run
		}
		st := gold.Stats
		if st.Wall != wall {
			return checked, fmt.Errorf("%s: simulated wall %v, baseline %v", key, st.Wall, wall)
		}
		if bytes >= 0 && (st.BytesHtoD+st.BytesDtoH != bytes || st.NumHtoD+st.NumDtoH != copies) {
			return checked, fmt.Errorf("%s: %d bytes in %d copies, baseline %d in %d",
				key, st.BytesHtoD+st.BytesDtoH, st.NumHtoD+st.NumDtoH, bytes, copies)
		}
		checked++
	}
	return checked, nil
}
