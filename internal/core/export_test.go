package core

import (
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
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

// Prepare compiles src through the front end and the passes opts
// schedules before the row: the module as the row's pass receives it.
func (r PipelineRow) Prepare(name, src string, opts Options) (*Program, error) {
	file, perrs := parser.Parse(name, src)
	if len(perrs) > 0 {
		return nil, joinErrors("parse", perrs)
	}
	info, serrs := sema.Check(file)
	if len(serrs) > 0 {
		return nil, joinErrors("check", serrs)
	}
	mod, err := irbuild.Build(info)
	if err != nil {
		return nil, err
	}
	p := &Program{Module: mod, Opts: opts, name: name}
	for i := range pipeline[:r] {
		ps := &pipeline[i]
		if opts.Strategy < ps.from || (ps.async && !opts.Async) || (ps.ablatable && opts.ablated(ps.name)) {
			continue
		}
		if _, err := ps.run(p, nil); err != nil {
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
