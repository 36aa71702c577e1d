package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cgcm/internal/core"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// The goldens are the reference every operation is checked against. They
// were frozen once (-freeze) and are committed, so the reference never
// comes from the code under test at run time: a change that makes the
// host faster must leave every simulated statistic identical.
//
//go:embed testdata/golden.json
var goldenJSON []byte

const goldenSchema = 1

// runGolden pins one program × options run: what server.RunResponse's
// Payload pins, with the ledger reduced to its hash.
type runGolden struct {
	OutputSHA256 string           `json:"output_sha256"`
	Exit         int64            `json:"exit"`
	Stats        machine.Stats    `json:"stats"`
	RTStats      runtimelib.Stats `json:"rt_stats"`
	CommUnits    int              `json:"comm_units"`
	CommSHA256   string           `json:"comm_sha256"`
}

// compileGolden pins one program × options compilation.
type compileGolden struct {
	ModuleSHA256 string         `json:"module_sha256"`
	Kernels      int            `json:"kernels"`
	LaunchSites  int            `json:"launch_sites"`
	Activity     map[string]int `json:"activity"` // compile phase -> activity count
}

type goldens struct {
	Schema  int                      `json:"schema"`
	Run     map[string]runGolden     `json:"run"`
	Compile map[string]compileGolden `json:"compile"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("testdata/golden.json: schema %d, want %d", g.Schema, goldenSchema)
	}
	return &g, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func commHash(l trace.Ledger) (string, error) {
	b, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// runResult is the verifiable part of a finished run, however it was
// driven: Program.Run, the hand-assembled traced run, or POST /run.
type runResult struct {
	outputSHA256 string
	exit         int64
	stats        machine.Stats
	rtStats      runtimelib.Stats
	comm         trace.Ledger
}

func resultOf(rep *core.Report) runResult {
	return runResult{sha256Hex([]byte(rep.Output)), rep.Exit, rep.Stats, rep.RTStats, rep.Comm}
}

func (r runResult) golden() (runGolden, error) {
	h, err := commHash(r.comm)
	if err != nil {
		return runGolden{}, err
	}
	return runGolden{r.outputSHA256, r.exit, r.stats, r.rtStats, len(r.comm.Units), h}, nil
}

// verify compares a run to its golden.
func (g runGolden) verify(r runResult) error {
	got, err := r.golden()
	if err != nil {
		return err
	}
	switch {
	case got.OutputSHA256 != g.OutputSHA256:
		return fmt.Errorf("output differs from golden")
	case got.Exit != g.Exit:
		return fmt.Errorf("exit %d, golden %d", got.Exit, g.Exit)
	case got.Stats != g.Stats:
		return fmt.Errorf("Stats differ from golden: %+v, golden %+v", got.Stats, g.Stats)
	case got.RTStats != g.RTStats:
		return fmt.Errorf("RTStats differ from golden: %+v, golden %+v", got.RTStats, g.RTStats)
	case got.CommSHA256 != g.CommSHA256:
		return fmt.Errorf("ledger differs from golden (%d units, golden %d)", got.CommUnits, g.CommUnits)
	}
	return nil
}

func compileGoldenOf(p *core.Program) compileGolden {
	g := compileGolden{
		ModuleSHA256: sha256Hex([]byte(p.Module.String())),
		Kernels:      p.Kernels(),
		LaunchSites:  p.LaunchSites(),
		Activity:     map[string]int{},
	}
	for _, ph := range p.Phases() {
		g.Activity[ph.Name] = ph.Activity
	}
	return g
}

func (g compileGolden) verify(got compileGolden) error {
	switch {
	case got.ModuleSHA256 != g.ModuleSHA256:
		return fmt.Errorf("module differs from golden")
	case got.Kernels != g.Kernels || got.LaunchSites != g.LaunchSites:
		return fmt.Errorf("%d kernels at %d launch sites, golden %d at %d", got.Kernels, got.LaunchSites, g.Kernels, g.LaunchSites)
	case len(got.Activity) != len(g.Activity):
		return fmt.Errorf("compile phases %v, golden %v", got.Activity, g.Activity)
	}
	for name, n := range g.Activity {
		if m, ok := got.Activity[name]; !ok || m != n {
			return fmt.Errorf("phase %s activity %d, golden %d", name, m, n)
		}
	}
	return nil
}
