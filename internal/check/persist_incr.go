package check

import (
	"bytes"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file implements the crash-and-recover stage on top of
// persist.go's restore-by-reexecution machinery: a base snapshot plus
// zero or more dirty-extent deltas (internal/ckpt), with the
// write-ahead journal compacted at every delta. A chain with no deltas
// is a full snapshot plus a journal. The same doctrine applies —
// persistence tooling charges ZERO simulated time; the modeled costs
// of recovery and online checkpointing are charged by the bench
// experiments (E17, E20), not here.

// ChainReport summarizes one configuration's crash-and-recover run.
type ChainReport struct {
	Config      string
	BaseAt      int   // ops executed before the base snapshot
	DeltaAts    []int // ops executed before each delta capture
	CrashAt     int   // ops executed before the crash
	RecoveredAt int   // ops recovered to (CrashAt, or CrashAt-1 when torn)
	// DirtyFrames and DirtyUnits count, per delta, the frames dirtied
	// since the previous capture and the checkpoint units covering them
	// (extents/grants for the extent configs, pages for the baseline).
	DirtyFrames []int
	DirtyUnits  []int
	// Watermark is the journal's compaction watermark at the crash: the
	// number of records superseded by deltas and dropped from media.
	Watermark      uint64
	JournalRecords int // records replayed from the journal suffix
	TornBytes      int // journal bytes discarded as a torn tail
	ChainBytes     int // encoded chain size (base + images + deltas)
}

// validateChainPoints checks 0 <= baseAt <= deltaAts (ascending) <=
// upTo <= traceLen and returns the last capture point.
func validateChainPoints(baseAt int, deltaAts []int, upTo, traceLen int) (int, error) {
	if baseAt < 0 || baseAt > upTo || upTo > traceLen {
		return 0, fmt.Errorf("check: need 0 <= baseAt(%d) <= upTo(%d) <= %d", baseAt, upTo, traceLen)
	}
	last := baseAt
	for _, at := range deltaAts {
		if at <= last || at > upTo {
			return 0, fmt.Errorf("check: delta points %v must ascend strictly within (baseAt(%d), upTo(%d)]", deltaAts, baseAt, upTo)
		}
		last = at
	}
	return last, nil
}

// buildChain executes cfg over trace[0:upTo], capturing a base
// snapshot (plus full memory image) at baseAt and a dirty-frame delta
// at each of deltaAts, journaling every op past baseAt. With compact,
// the journal is compacted at each delta — the online-checkpoint
// behavior, leaving only the post-watermark suffix on media. The
// returned world is live at upTo (the caller crashes or discards it).
func buildChain(cfg string, opts Options, trace []Op, baseAt int, deltaAts []int, upTo int, compact bool) (*ckpt.Chain, world, *Failure, error) {
	w, err := newWorld(cfg, opts.CPUs, opts.Seed, opts.Tier)
	if err != nil {
		return nil, nil, nil, err
	}
	mdl := newModel(opts.CPUs)
	if f := replaySpan(w, mdl, trace, 0, baseAt); f != nil {
		f.Reason = "chain timeline: " + f.Reason
		return nil, nil, f, nil
	}
	baseState, baseSum := capture(w)
	chain := &ckpt.Chain{
		Base: &snapshot.Snapshot{
			Meta: snapshot.Meta{
				Config: cfg, CPUs: opts.CPUs, Seed: opts.Seed,
				SnapAt: baseAt, TraceOps: len(trace), Tier: opts.Tier,
			},
			Machine:     baseState,
			Trace:       EncodeTrace(trace),
			MemChecksum: baseSum,
		},
		BaseFrames: ckpt.CaptureImage(w.memory()),
		Journal:    &snapshot.Journal{},
	}
	w.memory().SetDirtyTracking(true)
	pos := baseAt
	for k, at := range deltaAts {
		if f := replaySpan(w, mdl, trace, pos, at); f != nil {
			f.Reason = "chain timeline: " + f.Reason
			return nil, nil, f, nil
		}
		// Write-ahead order: every op reached the journal before it ran
		// (appended in one batch — records are pure functions of the
		// trace, and tooling charges no simulated time either way).
		for i := pos; i < at; i++ {
			chain.Journal.Append(encodeOp(nil, trace[i]))
		}
		frames := w.memory().DirtyFrames()
		units := w.dirtyUnits(frames)
		if gaps := ckpt.Uncovered(frames, units); len(gaps) > 0 {
			return nil, nil, &Failure{OpIndex: at, World: cfg,
				Reason: fmt.Sprintf("delta %d: %d dirty frames unclaimed by any subsystem (first: %d)", k+1, len(gaps), gaps[0])}, nil
		}
		st, sum := capture(w)
		chain.Deltas = append(chain.Deltas, &ckpt.Delta{
			Epoch:       k + 1,
			UpTo:        at,
			Units:       units,
			Frames:      ckpt.CaptureFrames(w.memory(), frames),
			Machine:     st,
			MemChecksum: sum,
		})
		w.memory().ResetDirty()
		if compact {
			// The delta supersedes every record before its capture point:
			// truncate the WAL to the suffix.
			if err := chain.Journal.Compact(uint64(at - baseAt)); err != nil {
				return nil, nil, nil, err
			}
		}
		pos = at
	}
	if f := replaySpan(w, mdl, trace, pos, upTo); f != nil {
		f.Reason = "chain timeline: " + f.Reason
		return nil, nil, f, nil
	}
	for i := pos; i < upTo; i++ {
		chain.Journal.Append(encodeOp(nil, trace[i]))
	}
	w.memory().SetDirtyTracking(false)
	return chain, w, nil, nil
}

// BuildChain runs the named configuration over the full seeded trace,
// checkpointing a base at baseAt and a delta at each of deltaAts, with
// the journal holding every op after baseAt (uncompacted — o1snap's
// compact verb truncates it explicitly).
func BuildChain(config string, opts Options, baseAt int, deltaAts []int) (*ckpt.Chain, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	if _, err := validateChainPoints(baseAt, deltaAts, len(trace), len(trace)); err != nil {
		return nil, err
	}
	chain, _, f, err := buildChain(config, opts, trace, baseAt, deltaAts, len(trace), false)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return nil, fmt.Errorf("check: %v", f)
	}
	return chain, nil
}

// rebuildFromChain reconstructs the machine at the chain's last
// capture point and proves the rebuild bit-identical to the last
// capture AND to the differential image (base overlaid with every
// delta) — the proof that dirty tracking missed nothing.
func rebuildFromChain(chain *ckpt.Chain) (world, *model, []Op, error) {
	wantState, wantSum := chain.Base.Machine, chain.Base.MemChecksum
	if n := len(chain.Deltas); n > 0 {
		wantState, wantSum = chain.Deltas[n-1].Machine, chain.Deltas[n-1].MemChecksum
	}
	w, mdl, trace, err := rebuild(chain.Base, chain.LastUpTo(), wantState, wantSum, "chain restore")
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ckpt.ImageEqual(w.memory(), ckpt.AssembleImage(chain.BaseFrames, chain.Deltas)); err != nil {
		return nil, nil, nil, fmt.Errorf("check: differential image: %w", err)
	}
	return w, mdl, trace, nil
}

// VerifyChain rebuilds a chain, proves the differential restore, then
// replays the journal suffix past the watermark, cross-checking every
// record against the embedded trace, and finishes with an invariant
// sweep plus a model content comparison.
func VerifyChain(chain *ckpt.Chain) error {
	w, mdl, trace, err := rebuildFromChain(chain)
	if err != nil {
		return err
	}
	baseAt := chain.Base.Meta.SnapAt
	lastUpTo := chain.LastUpTo()
	wm := chain.Journal.Watermark()
	if wm > uint64(lastUpTo-baseAt) {
		return fmt.Errorf("check: journal watermark %d, past last capture at op %d (over-compacted: records lost)", wm, lastUpTo)
	}
	startOp := baseAt + int(wm)
	endOp := startOp + chain.Journal.Len()
	if endOp < lastUpTo || endOp > len(trace) {
		return fmt.Errorf("check: journal covers ops [%d,%d), want it to reach from the last capture %d to at most %d", startOp, endOp, lastUpTo, len(trace))
	}
	for i, rec := range chain.Journal.Records() {
		op, rest, err := decodeOp(rec)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("check: journal record %d undecodable: %v (%d trailing bytes)", i, err, len(rest))
		}
		if op != trace[startOp+i] {
			return fmt.Errorf("check: journal record %d decoded to %s, trace has %s", i, op, trace[startOp+i])
		}
	}
	if f := replaySpan(w, mdl, trace, lastUpTo, endOp); f != nil {
		return fmt.Errorf("check: journal replay: %v", f)
	}
	if err := w.check(); err != nil {
		return fmt.Errorf("check: post-replay invariants: %v", err)
	}
	if f := finalCompare(mdl, []world{w}, endOp); f != nil {
		return fmt.Errorf("check: post-replay content: %v", f)
	}
	return nil
}

// CrashRecoverIncremental runs the crash-consistency experiment for
// every selected configuration:
//
//  1. An uncrashed CONTROL executes the whole trace, capturing its
//     state at crashAt and at the end.
//  2. The CRASHED timeline executes with dirty tracking: base
//     checkpoint (snapshot + full memory image) at baseAt, then at
//     each delta point a dirty-frame delta — the frames dirtied since
//     the previous capture, covered by subsystem units — after which
//     the journal is compacted to the delta (the WAL stops growing).
//     The chain round-trips through the binary format; the crash cuts
//     the live journal (mid-record with torn) and drops DRAM. With no
//     deltas, the chain is a full snapshot plus an uncompacted journal.
//  3. RECOVERY rebuilds to the LAST capture (the base, or the last
//     delta: the deltas' proof states pin every intermediate capture),
//     proves the rebuild bit-identical to that capture AND to the
//     assembled differential image (base + deltas), checks the journal
//     watermark landed exactly at the last capture, replays the
//     journal's valid suffix, finishes the trace, and proves the final
//     state bit-identical to the control.
//
// A non-nil Failure reports a persistence bug; error reports setup
// problems.
func CrashRecoverIncremental(opts Options, baseAt int, deltaAts []int, crashAt int, torn bool) ([]*ChainReport, *Failure, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	lastAt, err := validateChainPoints(baseAt, deltaAts, crashAt, len(trace))
	if err != nil {
		return nil, nil, err
	}
	if torn && crashAt == lastAt {
		return nil, nil, fmt.Errorf("check: a torn tail needs at least one journaled op past the last delta")
	}
	var reports []*ChainReport
	for _, cfg := range opts.Configs {
		rep, f, err := chainRecoverOne(cfg, opts, trace, baseAt, deltaAts, crashAt, torn)
		if err != nil {
			return reports, nil, fmt.Errorf("%s: %w", cfg, err)
		}
		if f != nil {
			if f.World == "" {
				f.World = cfg
			}
			return reports, f, nil
		}
		reports = append(reports, rep)
	}
	return reports, nil, nil
}

func chainRecoverOne(cfg string, opts Options, trace []Op, baseAt int, deltaAts []int, crashAt int, torn bool) (*ChainReport, *Failure, error) {
	// Control timeline: no crash, full trace.
	control, err := newWorld(cfg, opts.CPUs, opts.Seed, opts.Tier)
	if err != nil {
		return nil, nil, err
	}
	controlMdl := newModel(opts.CPUs)
	if f := replaySpan(control, controlMdl, trace, 0, crashAt); f != nil {
		f.Reason = "control: " + f.Reason
		return nil, f, nil
	}
	crashState, crashSum := capture(control)
	if f := replaySpan(control, controlMdl, trace, crashAt, len(trace)); f != nil {
		f.Reason = "control: " + f.Reason
		return nil, f, nil
	}
	finalState, finalSum := capture(control)

	// Crashed timeline: base + deltas with online journal compaction.
	chain, crashed, f, err := buildChain(cfg, opts, trace, baseAt, deltaAts, crashAt, true)
	if err != nil {
		return nil, nil, err
	}
	if f != nil {
		return nil, f, nil
	}
	// The chain (checkpoint data) round-trips through the on-media
	// format — recovery trusts only what Save durably wrote. The live
	// journal is separate media with its own torn-tail rule.
	onMedia := chain.Journal.Encode()
	if torn {
		// The crash cut the journal mid-record: the last record's CRC
		// never hit media, so recovery must discard it.
		onMedia = onMedia[:len(onMedia)-1]
	}
	var media bytes.Buffer
	if err := chain.Save(&media); err != nil {
		return nil, nil, err
	}
	chainBytes := media.Len()
	loaded, err := ckpt.Load(&media)
	if err != nil {
		return nil, nil, err
	}
	// Power fails: DRAM contents vanish and the machine halts. The
	// crashed world is never consulted again.
	crashed.memory().Crash()

	// Recovery: rebuild to the last delta, prove the differential
	// restore, replay the journal suffix, finish, prove the end state.
	recovered, recoveredMdl, rtrace, err := rebuildFromChain(loaded)
	if err != nil {
		return nil, &Failure{OpIndex: loaded.LastUpTo(), World: cfg, Reason: err.Error()}, nil
	}
	lastUpTo := loaded.LastUpTo()
	decoded, tornBytes := snapshot.DecodeJournal(onMedia)
	// Compaction must have landed the watermark exactly at the last
	// delta: the records on media are precisely the ops the deltas did
	// not capture.
	if want := uint64(lastUpTo - baseAt); decoded.Watermark() != want {
		return nil, &Failure{OpIndex: lastUpTo, World: cfg,
			Reason: fmt.Sprintf("journal watermark %d, want %d (last delta at op %d)", decoded.Watermark(), want, lastUpTo)}, nil
	}
	for i, rec := range decoded.Records() {
		op, rest, err := decodeOp(rec)
		if err != nil || len(rest) != 0 {
			return nil, &Failure{OpIndex: lastUpTo + i, World: cfg,
				Reason: fmt.Sprintf("journal record %d undecodable: %v (%d trailing bytes)", i, err, len(rest))}, nil
		}
		if op != trace[lastUpTo+i] {
			return nil, &Failure{OpIndex: lastUpTo + i, World: cfg,
				Reason: fmt.Sprintf("journal record %d decoded to %s, journaled %s", i, op, trace[lastUpTo+i])}, nil
		}
	}
	wantRecords := crashAt - lastUpTo
	if torn {
		wantRecords--
	}
	if decoded.Len() != wantRecords {
		return nil, &Failure{OpIndex: lastUpTo + decoded.Len(), World: cfg,
			Reason: fmt.Sprintf("journal recovered %d records, want %d (torn=%v)", decoded.Len(), wantRecords, torn)}, nil
	}
	recoveredAt := lastUpTo + decoded.Len()
	if f := replaySpan(recovered, recoveredMdl, rtrace, lastUpTo, recoveredAt); f != nil {
		f.Reason = "journal replay: " + f.Reason
		return nil, f, nil
	}
	if !torn {
		// With a clean journal, recovery lands exactly on the control's
		// crash-instant state; a torn tail recovers one op earlier, and
		// the final verification below still covers it.
		if err := verifyRestored(recovered, crashState, crashSum, "journal replay"); err != nil {
			return nil, &Failure{OpIndex: crashAt, World: cfg, Reason: err.Error()}, nil
		}
	}
	if f := replaySpan(recovered, recoveredMdl, rtrace, recoveredAt, len(rtrace)); f != nil {
		f.Reason = "post-recovery: " + f.Reason
		return nil, f, nil
	}
	if err := verifyRestored(recovered, finalState, finalSum, "final state after recovery"); err != nil {
		return nil, &Failure{OpIndex: len(trace), World: cfg, Reason: err.Error()}, nil
	}
	if f := finalCompare(recoveredMdl, []world{recovered}, len(trace)); f != nil {
		f.Reason = "post-recovery: " + f.Reason
		return nil, f, nil
	}
	rep := &ChainReport{
		Config:         cfg,
		BaseAt:         baseAt,
		DeltaAts:       append([]int(nil), deltaAts...),
		CrashAt:        crashAt,
		RecoveredAt:    recoveredAt,
		Watermark:      decoded.Watermark(),
		JournalRecords: decoded.Len(),
		TornBytes:      tornBytes,
		ChainBytes:     chainBytes,
	}
	for _, d := range loaded.Deltas {
		rep.DirtyFrames = append(rep.DirtyFrames, len(d.Frames))
		rep.DirtyUnits = append(rep.DirtyUnits, len(d.Units))
	}
	return rep, nil, nil
}

// incrementalStage is the randomized point selection Run uses when
// Options.CrashRecover is set: a seeded crash op, a base checkpoint at
// its first third, zero to three evenly spaced deltas between base and
// crash (zero is the full-snapshot-plus-journal case), and a coin flip
// for a torn tail.
func incrementalStage(opts Options, traceLen int) (baseAt int, deltaAts []int, crashAt int, torn bool) {
	rng := sim.NewRNG(opts.Seed ^ 0x5bd1e9955bd1e995)
	crashAt = 1 + int(rng.Uint64n(uint64(traceLen)))
	baseAt = crashAt / 3
	nDeltas := int(rng.Uint64n(4))
	span := crashAt - baseAt
	last := baseAt
	for i := 1; i <= nDeltas; i++ {
		at := baseAt + span*i/(nDeltas+1)
		if at > last {
			deltaAts = append(deltaAts, at)
			last = at
		}
	}
	torn = crashAt > last && rng.Uint64n(2) == 1
	return baseAt, deltaAts, crashAt, torn
}
