// What-if: a run's wall under a counterfactual machine. A scenario is
// data — a cost model, or a rewrite of the run's verb list
// (core.Report.Verbs) — and machine.Retime runs the machine's own clock
// over it, so a prediction is exactly the wall a re-run under the
// scenario's cost model measures; perfect-overlap, which no cost model
// expresses, is exactly the wall of the machine its rewrite describes.
// A Chrome trace carries no verbs: what-if needs a source run.
package critpath

import (
	"fmt"

	"cgcm/internal/machine"
)

// Scenario names one counterfactual.
type Scenario string

// Scenarios.
const (
	// ScenarioIdentity retimes the run unchanged; it equals the measured
	// wall bit for bit (a self-check, not a prediction).
	ScenarioIdentity Scenario = "identity"
	// ScenarioZeroComm makes every transfer free: TransferLat and
	// TransferPerB are 0. Data dependencies — a host read still waiting
	// for the kernel that produced the value — are preserved.
	ScenarioZeroComm Scenario = "zero-comm"
	// ScenarioGPU2x halves GPUOp and LaunchGPU, which halves every
	// kernel's duration.
	ScenarioGPU2x Scenario = "gpu-2x"
	// ScenarioPerfectOverlap moves every copy onto one dedicated stream
	// that nothing waits for but the final sync: the theoretical limit of
	// communication/computation overlap.
	ScenarioPerfectOverlap Scenario = "perfect-overlap"
)

// Scenarios lists the predictive scenarios in render order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioZeroComm, ScenarioGPU2x, ScenarioPerfectOverlap}
}

// ParseScenario resolves a -whatif argument.
func ParseScenario(s string) (Scenario, error) {
	switch Scenario(s) {
	case ScenarioIdentity, ScenarioZeroComm, ScenarioGPU2x, ScenarioPerfectOverlap:
		return Scenario(s), nil
	}
	return "", fmt.Errorf("unknown scenario %q (want zero-comm, gpu-2x, perfect-overlap, or identity)", s)
}

// Cost returns the cost model sc retimes a run made under cost with.
func (sc Scenario) Cost(cost machine.CostModel) machine.CostModel {
	switch sc {
	case ScenarioZeroComm:
		cost.TransferLat, cost.TransferPerB = 0, 0
	case ScenarioGPU2x:
		// Halving is exact in floating point, so every kernel's duration
		// (LaunchGPU plus a product of GPUOp) halves bit for bit.
		cost.GPUOp /= 2
		cost.LaunchGPU /= 2
	}
	return cost
}

// Verbs returns the verb list sc retimes: for perfect-overlap, verbs with
// every copy moved to one stream of its own and nothing but the final
// sync waiting for a copy; verbs itself otherwise.
func (sc Scenario) Verbs(verbs []machine.Verb) []machine.Verb {
	if sc != ScenarioPerfectOverlap {
		return verbs
	}
	dma := 1
	for i := range verbs {
		dma = max(dma, verbs[i].Stream+1)
	}
	out := make([]machine.Verb, len(verbs))
	for i, v := range verbs {
		switch v.Kind {
		case machine.VerbHtoD, machine.VerbDtoH:
			v.Stream = dma
		case machine.VerbKernel:
			v.Waits = nil // copies, or marks of the GPU it waits for anyway
		case machine.VerbTouch, machine.VerbFree:
			// They wait for copies and do nothing else: zero CPU ops, a
			// no-op that keeps every event id in place.
			v = machine.Verb{Kind: machine.VerbCPU}
		}
		out[i] = v
	}
	return out
}

// Prediction is the outcome of one what-if retime.
type Prediction struct {
	Scenario Scenario `json:"scenario"`
	Wall     float64  `json:"wall"`    // the wall under the scenario
	Speedup  float64  `json:"speedup"` // measured wall / predicted wall
}

// WhatIf retimes verbs, recorded by a run under cost, under one scenario.
func WhatIf(verbs []machine.Verb, cost machine.CostModel, sc Scenario) Prediction {
	wall := machine.Retime(verbs, cost).Wall
	p := Prediction{Scenario: sc, Wall: machine.Retime(sc.Verbs(verbs), sc.Cost(cost)).Wall}
	if p.Wall > 0 {
		p.Speedup = wall / p.Wall
	}
	return p
}

// WhatIfAll retimes verbs under every predictive scenario.
func WhatIfAll(verbs []machine.Verb, cost machine.CostModel) []Prediction {
	var out []Prediction
	for _, sc := range Scenarios() {
		out = append(out, WhatIf(verbs, cost, sc))
	}
	return out
}
