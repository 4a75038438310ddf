package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/experiments"
	"ironhide/internal/metrics"
	"ironhide/internal/runner"
	"ironhide/internal/trace"
)

// paperMatrixSHA is the SHA-256 of the Figure 1a, 6 and 7 JSON reports at
// scale 0.1. The simulation is deterministic and seeds steer only
// attestation keys, so every seed and worker count must reproduce it.
//
//go:embed testdata/paper-matrix.sha256
var paperMatrixSHA string

// paperMatrix runs what `ironhide-sim fig1a`, `fig6` and `fig7` run: the
// full 9-app x 4-model matrix, on loadWorkers runner workers.
type paperMatrix struct {
	cfg  arch.Config
	seed int64
	last *experiments.Matrix
}

func setupPaperMatrix(seed int64) (instance, error) {
	return &paperMatrix{cfg: machine(), seed: seed}, nil
}

func (p *paperMatrix) op(i int) ([]sample, error) {
	t0 := time.Now()
	mx, err := experiments.RunMatrix(p.cfg, experiments.Config{
		Scale: scale, Parallel: loadWorkers(), BaseSeed: runner.SeedFor(p.seed, i),
	})
	if err != nil {
		return nil, err
	}
	body, err := matrixJSON(mx)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	if err := checkMatrix(body); err != nil {
		return nil, err
	}
	p.last = mx
	return []sample{{0, d}}, nil
}

// matrixJSON renders the three figure reports the matrix feeds.
func matrixJSON(mx *experiments.Matrix) ([]byte, error) {
	var b bytes.Buffer
	for _, rep := range []metrics.Tabular{mx.BuildFig1a(), mx.BuildFig6(), mx.BuildFig7()} {
		if err := metrics.EmitJSON(&b, rep); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

func checkMatrix(body []byte) error {
	sum := sha256.Sum256(body)
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(paperMatrixSHA); got != want {
		return fmt.Errorf("figure 1a/6/7 JSON sha256 %s, want %s", got, want)
	}
	return nil
}

func (p *paperMatrix) traced(t *tracer, parent, i int) error {
	entries := apps.Catalog()
	mx, err := tracedMatrix(t, parent, i, p.cfg, entries, loadWorkers(), runner.SeedFor(p.seed, i))
	if err != nil {
		return err
	}
	var body []byte
	if err := t.do("experiments.report", parent, i, func() (int64, error) {
		var err error
		body, err = matrixJSON(mx)
		return int64(len(body)), err
	}); err != nil {
		return err
	}
	return checkMatrix(body)
}

// tracedMatrix is RunMatrix as direct calls: one capture per application,
// then every (application, model) cell as a search plus a replay, both
// fanned out on the runner's pool.
func tracedMatrix(t *tracer, parent, op int, cfg arch.Config, entries []apps.Entry, workers int, baseSeed int64) (*experiments.Matrix, error) {
	id := t.begin("runner.matrix", parent, op)
	defer t.end(id, int64(len(entries)))
	traces, err := runner.Map(workers, entries, func(_ int, e apps.Entry) (*trace.Trace, error) {
		return capture(t, id, op, cfg, e)
	})
	if err != nil {
		return nil, err
	}
	type cell struct{ app, model int }
	var cells []cell
	for a := range entries {
		for m := range driver.ModelFactories() {
			cells = append(cells, cell{a, m})
		}
	}
	factories := driver.ModelFactories()
	results, err := runner.Map(workers, cells, func(j int, c cell) (*driver.Result, error) {
		opts := driver.Options{Scale: scale, Seed: runner.SeedFor(baseSeed, j)}
		mf := factories[c.model]
		model := mf()
		if model.Temporal() {
			return replay(t, id, op, cfg, model, traces[c.app], opts)
		}
		sr, err := search(t, id, op, cfg, model, traces[c.app], opts)
		if err != nil {
			return nil, err
		}
		pinned := opts
		pinned.FixedSecureCores, pinned.WaiveReconfig = sr.SecureCores, sr.WaiveReconfig
		res, err := replay(t, id, op, cfg, mf(), traces[c.app], pinned)
		if err != nil {
			return nil, err
		}
		res.SearchProbes = sr.Probes
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	mx := &experiments.Matrix{Cfg: cfg, Cells: map[string]map[string]*experiments.Cell{}}
	for _, m := range driver.Models() {
		mx.Models = append(mx.Models, m.Name())
	}
	for j, c := range cells {
		e := entries[c.app]
		if results[j].RouteViolations != 0 {
			return nil, fmt.Errorf("%s/%s recorded %d route violations", e.Name, mx.Models[c.model], results[j].RouteViolations)
		}
		if c.model == 0 {
			mx.Order = append(mx.Order, e.Name)
			mx.Cells[e.Name] = map[string]*experiments.Cell{}
		}
		mx.Cells[e.Name][mx.Models[c.model]] = &experiments.Cell{Entry: e, Result: results[j]}
	}
	return mx, nil
}

func (p *paperMatrix) begin() error { return nil }

func (p *paperMatrix) finish(from, to int) (counters, []error) {
	var cs counters
	if p.last == nil {
		return cs, nil
	}
	for _, s := range p.last.BuildFig6().Speedups {
		if s.Scope == "all" {
			cs.notes = append(cs.notes, fmt.Sprintf(
				"simulated geomean MI6/IRONHIDE %.2fx (paper 2.1x), SGX/IRONHIDE %.2fx (paper 1.2x): a scale-0.1 simulation, unvalidated against hardware",
				s.MI6VsIronhide, s.SGXVsIronhide))
		}
	}
	return cs, nil
}

func (p *paperMatrix) ledger() ledgerInputs {
	var aliases []string
	for _, e := range apps.Catalog() {
		aliases = append(aliases, e.Alias)
	}
	return ledgerInputs{apps: aliases}
}

func (p *paperMatrix) close() error { return nil }
