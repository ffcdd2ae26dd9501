package main

import (
	"bytes"
	"fmt"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/sim"
)

var checkRecover = spec{
	name: "check-recover",
	why: "The only workload that reaches check, snapshot and ckpt, and the one where tier " +
		"dominates: per seed, a differential check.Run over all five configurations with a tier " +
		"engine and invariant sweeps, an incremental crash-and-recover with a torn journal tail, " +
		"and the o1snap cycle (BuildChain, Save, Load, VerifyChain). The worlds are rebuilt by " +
		"check itself, so the benchmark reaches no vm/memfs/core counters here.",
	setup: setupCheckRecover,
	canon: crCanon,
}

// Check-recover sizing: each round replays one seed's crOps trace ops
// on 2 simulated CPUs, the differential replay with a tier engine and
// invariant sweeps every crCheckEvery ops. Rounds replay a sequence of
// seeds drawn from the run's seed; the canonical measurement covers
// the first crCanon of them: the work one seed's trace makes varies
// widely, the mean over many does not. crWarmOps sizes the set-up's
// warm-up replay.
const (
	crOps        = 600
	crCanon      = 16
	crCPUs       = 2
	crCheckEvery = 1024
	crWarmOps    = 200
)

type checkRecoverInst struct {
	seeds   *sim.RNG // the sequence of per-round seeds
	ops     int
	sim     map[string]int64 // simulated time of each config's chains, canonical rounds
	counted map[string]uint64
}

// opts are the checker options for one seed; tiered attaches the
// tier engine (the differential replay only).
func (w *checkRecoverInst) opts(seed uint64, ops int, tiered bool) check.Options {
	return check.Options{Seed: seed, Ops: ops, CPUs: crCPUs, CheckEvery: crCheckEvery, Tier: tiered}
}

// setupCheckRecover warms the checker with a short replay of a fixed
// seed: it proves every configuration can be built and lets lazy
// runtime set-up finish before timing.
func setupCheckRecover(seed uint64, tiny bool, tr *tracer) (instance, error) {
	w := &checkRecoverInst{seeds: sim.NewRNG(seed), ops: crOps,
		sim: make(map[string]int64), counted: make(map[string]uint64)}
	warm := crWarmOps
	if tiny {
		w.ops, warm = 120, 40
	}
	tr.begin(0, cWorkloadGen)
	rep, err := check.Run(w.opts(0, warm, true))
	tr.end(0)
	if err != nil {
		return nil, err
	}
	if rep.Failure != nil {
		return nil, fmt.Errorf("warm-up: %v", rep.Failure)
	}
	return w, nil
}

// points derives the incremental crash-recover points from a seed: a
// crash in the second half of the trace, a base at a quarter of it,
// two deltas between, and a torn journal tail.
func points(seed uint64, ops int) (baseAt int, deltaAts []int, crashAt int) {
	rng := sim.NewRNG(seed ^ 0x5bd1e9955bd1e995)
	crashAt = ops/2 + int(rng.Uint64n(uint64(ops/2)))
	baseAt = crashAt / 4
	span := crashAt - baseAt
	deltaAts = []int{baseAt + span/3, baseAt + 2*span/3}
	return baseAt, deltaAts, crashAt
}

// round runs the three steps for the next seed of the run's sequence.
// A checker or recovery Failure fails every op of that seed.
func (w *checkRecoverInst) round(r *run) error {
	seed := w.seeds.Uint64()
	nCfg := int64(len(check.AllConfigs))
	ops := int64(w.ops)
	r.tr.begin(0, cCheckReplay)
	rep, err := check.Run(w.opts(seed, w.ops, true))
	r.tr.end(0)
	if err != nil {
		return err
	}
	r.attempted += ops * nCfg
	if rep.Failure != nil {
		r.fail(ops*nCfg, fmt.Errorf("seed %d: check: %v", seed, rep.Failure))
		return nil
	}

	o := w.opts(seed, w.ops, false)
	baseAt, deltaAts, crashAt := points(seed, w.ops)
	r.tr.begin(0, cCheckRecover)
	crs, f, err := check.CrashRecoverIncremental(o, baseAt, deltaAts, crashAt, true)
	r.tr.end(0)
	if err != nil {
		return err
	}
	// The control replays the whole trace; the crashed timeline runs to
	// the crash, and recovery replays from the last delta to the end.
	recOps := (ops + int64(crashAt) + ops - int64(deltaAts[len(deltaAts)-1])) * nCfg
	r.attempted += recOps
	if f != nil {
		r.fail(recOps, fmt.Errorf("seed %d: crash-recover: %v", seed, f))
		return nil
	}
	if r.digestOn {
		for _, cr := range crs {
			r.lanes[0].add(uint64(cr.RecoveredAt))
			r.lanes[0].add(uint64(cr.Watermark))
			r.lanes[0].add(uint64(cr.ChainBytes))
			for _, n := range cr.DirtyUnits {
				r.lanes[0].add(uint64(n))
			}
		}
	}

	chainAts := append(append([]int(nil), deltaAts...), w.ops)
	for _, cfg := range check.AllConfigs {
		if err := w.chainCycle(r, cfg, o, baseAt, chainAts); err != nil {
			return fmt.Errorf("seed %d: %s: %w", seed, cfg, err)
		}
	}
	if r.digestOn {
		w.counted["check.seeds_ok"]++
	}
	return nil
}

// chainCycle is the o1snap cycle for one configuration: build an
// incremental chain whose last delta is the end of the trace, save it,
// load it back and verify it. The last delta's machine capture is the
// configuration's simulated time for the whole trace.
func (w *checkRecoverInst) chainCycle(r *run, cfg string, o check.Options, baseAt int, deltaAts []int) error {
	ops := int64(w.ops)
	r.tr.begin(0, cCkptBuild)
	chain, err := check.BuildChain(cfg, o, baseAt, deltaAts)
	r.tr.end(0)
	if err != nil {
		return err
	}
	r.attempted += ops
	var buf bytes.Buffer
	r.tr.begin(0, cCkptSave)
	err = chain.Save(&buf)
	r.tr.end(0)
	if err != nil {
		return err
	}
	size := buf.Len()
	r.tr.begin(0, cCkptLoad)
	loaded, err := ckpt.Load(&buf)
	r.tr.end(0)
	if err != nil {
		return err
	}
	r.tr.begin(0, cCkptVerify)
	err = check.VerifyChain(loaded)
	r.tr.end(0)
	r.attempted += ops
	if err != nil {
		r.fail(ops, err)
		return nil
	}
	last := chain.Deltas[len(chain.Deltas)-1].Machine
	var t sim.Time
	for _, c := range last.CPUs {
		if c.Clock > t {
			t = c.Clock
		}
	}
	if r.digestOn {
		r.lanes[0].addState(last)
		r.lanes[0].add(uint64(size))
		w.sim[cfg] += int64(t)
		w.counted["ckpt.chain_bytes"] += uint64(size)
		for _, d := range chain.Deltas {
			w.counted["ckpt.delta_units"] += uint64(len(d.Units))
		}
	}
	return nil
}

func (w *checkRecoverInst) simNanos() map[string]int64 {
	out := make(map[string]int64, len(w.sim))
	for k, v := range w.sim {
		out[k] = v
	}
	return out
}

func (w *checkRecoverInst) counters(c map[string]uint64) {
	for k, v := range w.counted {
		c[k] += v
	}
}

// state adds nothing: the chains' machine captures are folded into the
// digest as they are built.
func (w *checkRecoverInst) state(*digest) {}

// machines returns none: check builds, sweeps (every crCheckEvery ops
// and at the end) and drops its own.
func (w *checkRecoverInst) machines() []*sim.Machine { return nil }
