package main

import (
	"fmt"
	"time"

	"cgcm/internal/core"
	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/lexer"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/minic/token"
	"cgcm/internal/passes/allocapromo"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/passes/gluekernel"
	"cgcm/internal/passes/mappromo"
	"cgcm/internal/passes/overlap"
	"cgcm/internal/remarks"
)

// compileInstance serves compile_cold: every class is one source ×
// options pair and an operation is one core.Compile of it, no run.
type compileInstance struct {
	keys     []string
	programs []string
	sources  []string
	opts     []core.Options
	gold     []compileGolden

	// Sums over the traced operations, for layers().
	tr            *tracer
	traced        int
	tokens        int64
	srcBytes      int64
	irInstrs      int64
	irInstrsFinal int64
	activity      map[string]int64 // compile phase -> activity count
}

func prepareCompiles(keys []string) func(*goldens) (instance, error) {
	return func(g *goldens) (instance, error) {
		ci := &compileInstance{keys: keys, activity: map[string]int64{}}
		for _, key := range keys {
			gold, ok := g.Compile[key]
			if !ok {
				return nil, fmt.Errorf("no compile golden for %s", key)
			}
			program, config := splitKey(key)
			src, err := source(program)
			if err != nil {
				return nil, err
			}
			opts, err := configOptions(config)
			if err != nil {
				return nil, err
			}
			ci.programs = append(ci.programs, program)
			ci.sources = append(ci.sources, src)
			ci.opts = append(ci.opts, opts)
			ci.gold = append(ci.gold, gold)
		}
		return ci, nil
	}
}

func (ci *compileInstance) do(c, _ int, _ uint64, tr *tracer, op int) (time.Duration, error) {
	if tr == nil {
		t0 := time.Now()
		p, err := core.Compile(ci.programs[c], ci.sources[c], ci.opts[c])
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		return lat, ci.gold[c].verify(compileGoldenOf(p))
	}
	root := tr.begin("hostbench.op", -1, op)
	st, err := stagedCompile(ci.programs[c], ci.sources[c], ci.opts[c], tr, root, op)
	tr.end(root)
	lat := time.Duration(tr.dur(root))
	if err != nil {
		return lat, err
	}
	ci.tr = tr
	ci.traced++
	ci.tokens += int64(st.tokens)
	ci.srcBytes += int64(len(ci.sources[c]))
	for stage, n := range st.activity {
		ci.activity[stage] += int64(n)
	}
	ci.irInstrs += int64(st.irInstrs)
	ci.irInstrsFinal += int64(st.irInstrsFinal)
	got := compileGolden{
		ModuleSHA256: sha256Hex([]byte(st.mod.String())),
		Kernels:      st.kernels,
		LaunchSites:  st.launchSites,
		Activity:     st.activity,
	}
	return lat, ci.gold[c].verify(got)
}

// staged is what stagedCompile produced.
type staged struct {
	mod           *ir.Module
	tokens        int
	irInstrs      int // after irbuild
	irInstrsFinal int
	kernels       int
	launchSites   int
	activity      map[string]int // as Program.Phases reports it
}

func countInstrs(m *ir.Module) (n, kernels, launches int) {
	for _, f := range m.Funcs {
		if f.Kernel {
			kernels++
		}
		f.Instrs(func(in *ir.Instr) {
			n++
			if in.Op == ir.OpLaunch {
				launches++
			}
		})
	}
	return n, kernels, launches
}

// stagedCompile is core.Compile taken apart so every stage gets its own
// span: the same stages in the same order under the same conditions as
// core.CompileContext (no ablation, no dump writer). The lexer stage is
// extra — the parser lexes for itself — and exists to count tokens.
// checkDrivers holds the result to core.Compile's Module.String().
func stagedCompile(name, src string, opts core.Options, tr *tracer, root, op int) (*staged, error) {
	if len(opts.Ablate) > 0 || opts.DumpWriter != nil {
		return nil, fmt.Errorf("stagedCompile does not model options %+v", opts)
	}
	st := &staged{activity: map[string]int{}}
	span := func(name string) func() {
		s := tr.begin(name, root, op)
		return func() { tr.end(s) }
	}

	end := span("lexer.Next")
	lx := lexer.New(name, src)
	for lx.Next().Kind != token.EOF {
		st.tokens++
	}
	end()

	end = span("parser.Parse")
	file, perrs := parser.Parse(name, src)
	end()
	if len(perrs) > 0 {
		return nil, fmt.Errorf("parse %s: %v", name, perrs[0])
	}
	st.activity["parse"] = len(file.Decls)

	end = span("sema.Check")
	info, serrs := sema.Check(file)
	end()
	if len(serrs) > 0 {
		return nil, fmt.Errorf("check %s: %v", name, serrs[0])
	}
	st.activity["sema"] = 0

	end = span("irbuild.Build")
	mod, err := irbuild.Build(info)
	end()
	if err != nil {
		return nil, err
	}
	st.activity["irbuild"] = len(mod.Funcs)
	st.irInstrs, _, _ = countInstrs(mod)

	var rc *remarks.Collector
	if opts.Remarks {
		rc = remarks.NewCollector(name)
	}

	end = span("constfold.Run")
	cres, err := constfold.Run(mod)
	end()
	if err != nil {
		return nil, err
	}
	st.activity["constfold"] = cres.Folded + cres.Simplified

	if opts.Strategy != core.Sequential {
		end = span("doall.Run")
		dres, err := doall.Run(mod, rc)
		end()
		if err != nil {
			return nil, err
		}
		st.activity["doall"] = dres.LoopsParallelized
	}
	if opts.Strategy == core.CGCMUnoptimized || opts.Strategy == core.CGCMOptimized {
		end = span("commmgmt.Run")
		mres, err := commmgmt.Run(mod, rc)
		end()
		if err != nil {
			return nil, err
		}
		st.activity["commmgmt"] = mres.MapsInserted

		if opts.Strategy == core.CGCMOptimized {
			end = span("gluekernel.Run")
			gres, err := gluekernel.Run(mod, rc)
			end()
			if err != nil {
				return nil, err
			}
			st.activity["gluekernel"] = gres.Outlined

			end = span("allocapromo.Run")
			ares, err := allocapromo.Run(mod, rc)
			end()
			if err != nil {
				return nil, err
			}
			st.activity["allocapromo"] = ares.Promoted

			end = span("mappromo.Run")
			pres, err := mappromo.Run(mod, rc)
			end()
			if err != nil {
				return nil, err
			}
			st.activity["mappromo"] = pres.Promotions
		}
		if opts.Async {
			end = span("overlap.Run")
			ores, err := overlap.Run(mod, rc)
			end()
			if err != nil {
				return nil, err
			}
			st.activity["overlap"] = ores.Rewritten()
		}
	}

	end = span("core.finish")
	_ = rc.Remarks()
	mod.Renumber()
	st.irInstrsFinal, st.kernels, st.launchSites = countInstrs(mod)
	end()
	st.mod = mod
	return st, nil
}

func (ci *compileInstance) checkDrivers() error {
	tr := newTracer()
	for c, key := range ci.keys {
		p, err := core.Compile(ci.programs[c], ci.sources[c], ci.opts[c])
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		root := tr.begin("hostbench.op", -1, c)
		st, err := stagedCompile(ci.programs[c], ci.sources[c], ci.opts[c], tr, root, c)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: stage-by-stage compile: %w", key, err)
		}
		if st.mod.String() != p.Module.String() {
			return fmt.Errorf("%s: the stage-by-stage compile no longer produces core.Compile's module", key)
		}
	}
	return nil
}

func (ci *compileInstance) close() error { return nil }

// compileStages maps each compile layer to the activity count reported
// beside its busy time.
var compileStages = []struct{ layer, count string }{
	{"parser", ""}, {"sema", ""}, {"irbuild", ""},
	{"constfold", "constfold.folded"},
	{"doall", "doall.loops_parallelized"},
	{"commmgmt", "commmgmt.maps_inserted"},
	{"gluekernel", "gluekernel.outlined"},
	{"allocapromo", "allocapromo.promoted"},
	{"mappromo", "mappromo.promotions"},
	{"overlap", "overlap.sites"},
}

// layers reports the front end's and the passes' per-layer metrics, all
// measured: self time of the stage spans and the stages' own activity
// counts, as means per traced operation.
func (ci *compileInstance) layers(m map[string]float64) {
	if ci.traced == 0 {
		return
	}
	n := float64(ci.traced)
	self := ci.tr.selfNS()
	for _, s := range compileStages {
		m[s.layer+".busy_ms"] = float64(self[s.layer]) / 1e6 / n
		if s.count != "" {
			m[s.count] = float64(ci.activity[s.layer]) / n
		}
	}
	if ns := self["lexer"]; ns > 0 {
		m["lexer.tokens_per_s"] = float64(ci.tokens) / (float64(ns) / 1e9)
	}
	if ns := self["parser"]; ns > 0 {
		m["parser.src_kb_per_s"] = float64(ci.srcBytes) / 1e3 / (float64(ns) / 1e9)
	}
	m["irbuild.ir_instrs"] = float64(ci.irInstrs) / n
	m["core.ir_instrs_final"] = float64(ci.irInstrsFinal) / n
}
