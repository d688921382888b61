package main

import (
	"fmt"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/profile"
	"dynamollm/internal/solver"
	"dynamollm/internal/workload"
)

// Probe identifiers, carried in a bench.probe span's a field.
const (
	probeIter = iota
	probeSteady
	probeSolve
)

// probeRounds is how many timed rounds each probe runs; its metric is the
// median round's cost per call, rescaled to the reference speed by kernel
// samples taken around the rounds.
const (
	probeRounds  = 5
	probeSamples = 25
)

// probeSink keeps the probed calls' results live.
var probeSink float64

// runProbes times the model and solver layers on fixed inputs:
// perfmodel.Config.Iter is what every event-engine iteration calls,
// SteadyState what fluid ticks and profile builds call, and
// SolveSharding what a pool-manager epoch solves for each class, here
// for a two-server pool.
func runProbes(rep *report, rec *recorder, repo *profile.Repository, ref *speedRef) error {
	cfg := perfmodel.Config{Model: model.Llama2_70B, TP: model.TP4, Freq: gpu.MaxFreq}
	batch := perfmodel.Batch{PrefillTokens: 512, DecodeSeqs: 32, ContextTokens: 32 * 1024}
	prof := repo.Get(model.Llama2_70B, 1)
	var solveErr error

	rec.nameLane(0, "setup and probes")
	probe := func(id, calls int, f func()) float64 {
		meter := speedMeter{ref: ref}
		meter.add(probeSamples)
		for range probeRounds {
			sp := rec.begin(spProbe, 0, -1)
			for range calls {
				f()
			}
			rec.end(sp, int64(id), int64(calls))
		}
		meter.add(probeSamples)
		return meter.factor() * median(rec.collect(spProbe, func(s span) (float64, bool) {
			return float64(s.dur) / float64(calls), s.a == int64(id)
		}))
	}
	rep.perLayer["perfmodel.iter_ns"] = probe(probeIter, 200_000, func() {
		probeSink += cfg.Iter(batch).Time
	})
	rep.perLayer["perfmodel.steady_us"] = probe(probeSteady, 200, func() {
		probeSink += perfmodel.SteadyState(cfg, 1.0, 512, 187).IterTime
	}) / 1e3
	rep.perLayer["solver.solve_us"] = probe(probeSolve, 1, func() {
		for _, cls := range workload.AllClasses {
			a, err := solver.SolveSharding(prof, cls, 16, prof.MaxLoadHighestPerf(cls))
			if err != nil {
				solveErr = fmt.Errorf("solver probe, class %v: %w", cls, err)
			}
			probeSink += a.PowerW
		}
	}) / 1e3
	return solveErr
}
