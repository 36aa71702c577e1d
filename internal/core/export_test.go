package core

import (
	"cgcm/internal/analysis"
	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/allocapromo"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/passes/gluekernel"
	"cgcm/internal/passes/mappromo"
	"cgcm/internal/passes/overlap"
)

// PipelineRow is one row of the pass pipeline, for BenchmarkPipeline,
// which times the passes one at a time.
type PipelineRow int

// PipelineRows lists the rows in pipeline order.
func PipelineRows() []PipelineRow {
	rows := make([]PipelineRow, len(pipeline))
	for i := range rows {
		rows[i] = PipelineRow(i)
	}
	return rows
}

// Name is the row's pass.
func (r PipelineRow) Name() Pass { return pipeline[r].name }

// Scheduled reports whether opts schedules the row's pass.
func (r PipelineRow) Scheduled(opts Options) bool {
	ps := &pipeline[r]
	return opts.Strategy >= ps.from && (!ps.async || opts.Async) && !(ps.ablatable && opts.ablated(ps.name))
}

// frontEnd parses, checks and lowers src: the module the pipeline
// receives.
func frontEnd(name, src string) (*ir.Module, error) {
	file, perrs := parser.Parse(name, src)
	if len(perrs) > 0 {
		return nil, joinErrors("parse", perrs)
	}
	info, serrs := sema.Check(file)
	if len(serrs) > 0 {
		return nil, joinErrors("check", serrs)
	}
	return irbuild.Build(info)
}

// Prepare compiles src through the front end and the passes opts
// schedules before the row: the module as the row's pass receives it,
// with the points-to solution the pipeline carries to it.
func (r PipelineRow) Prepare(name, src string, opts Options) (*Program, error) {
	mod, err := frontEnd(name, src)
	if err != nil {
		return nil, err
	}
	p := &Program{Module: mod, Opts: opts, name: name}
	for _, row := range PipelineRows()[:r] {
		if !row.Scheduled(opts) {
			continue
		}
		if err := row.Run(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Run applies the row's pass to p, without remarks.
func (r PipelineRow) Run(p *Program) error {
	_, err := pipeline[r].run(p, nil)
	return err
}

// PointsTo is the points-to solution the pipeline carries past the
// passes run on p so far, or nil when it holds none.
func (p *Program) PointsTo() *analysis.PointsTo { return p.pt }

// selfBuilding runs each pass through the entry point that builds its
// own points-to solution, as the pass packages' callers outside the
// pipeline do.
var selfBuilding = map[Pass]func(*ir.Module) error{
	"constfold":     func(m *ir.Module) error { _, err := constfold.Run(m); return err },
	PassDOALL:       func(m *ir.Module) error { _, err := doall.Run(m, nil); return err },
	"commmgmt":      func(m *ir.Module) error { _, err := commmgmt.Run(m, nil); return err },
	PassGlueKernel:  func(m *ir.Module) error { _, err := gluekernel.Run(m, nil); return err },
	PassAllocaPromo: func(m *ir.Module) error { _, err := allocapromo.Run(m, nil); return err },
	PassMapPromo:    func(m *ir.Module) error { _, err := mappromo.Run(m, nil); return err },
	PassOverlap:     func(m *ir.Module) error { _, err := overlap.Run(m, nil); return err },
}

// CompileReference is the module Compile produces for src under opts,
// made by the reference pipeline: the passes opts schedules, in order,
// each building its own points-to solution.
func CompileReference(name, src string, opts Options) (*ir.Module, error) {
	mod, err := frontEnd(name, src)
	if err != nil {
		return nil, err
	}
	for _, row := range PipelineRows() {
		if !row.Scheduled(opts) {
			continue
		}
		if err := selfBuilding[row.Name()](mod); err != nil {
			return nil, err
		}
	}
	mod.Renumber()
	return mod, nil
}
