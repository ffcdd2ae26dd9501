package check

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file bridges the harness to the persistence subsystem
// (internal/snapshot): it owns the operation-trace codec embedded in
// snapshots and journal records, and implements the crash-and-recover
// stage — checkpoint mid-trace, journal the ops that follow, crash,
// recover, and prove the recovered timeline bit-identical to an
// uncrashed control.
//
// Persistence tooling charges ZERO simulated time. A snapshot capture,
// journal append, or checksum is an out-of-band observer action here;
// byte-identity between the crashed-and-recovered timeline and the
// control timeline is only meaningful if the tooling itself is
// invisible. The *modeled* persistence costs (Params.JournalAppend,
// per-config metadata rebuild) are charged by the recovery experiment
// (internal/bench E17), not by this harness.

// EncodeTrace serializes an operation trace for embedding in a
// snapshot. The format is little-endian: u32 op count, then each op as
// encodeOp lays it out.
func EncodeTrace(trace []Op) []byte {
	b := pu32(nil, uint32(len(trace)))
	for _, op := range trace {
		b = encodeOp(b, op)
	}
	return b
}

// DecodeTrace parses an EncodeTrace payload.
func DecodeTrace(b []byte) ([]Op, error) {
	n, b, err := gu32(b)
	if err != nil {
		return nil, err
	}
	trace := make([]Op, 0, n)
	for i := uint32(0); i < n; i++ {
		var op Op
		op, b, err = decodeOp(b)
		if err != nil {
			return nil, fmt.Errorf("check: trace op %d: %w", i, err)
		}
		trace = append(trace, op)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("check: trace has %d trailing bytes", len(b))
	}
	return trace, nil
}

// encodeOp appends one operation: kind u8, proc/obj/child/cpu u32,
// pages/page u64, val u8, shared u8, path (u32 len + bytes).
func encodeOp(b []byte, op Op) []byte {
	b = append(b, byte(op.Kind))
	b = pu32(b, uint32(op.Proc))
	b = pu32(b, uint32(op.Obj))
	b = pu32(b, uint32(op.Child))
	b = pu32(b, uint32(op.CPU))
	b = pu64(b, op.Pages)
	b = pu64(b, op.Page)
	b = append(b, op.Val)
	var shared byte
	if op.Shared {
		shared = 1
	}
	b = append(b, shared)
	b = pu32(b, uint32(len(op.Path)))
	return append(b, op.Path...)
}

// decodeOp parses one encodeOp record, returning the remaining bytes.
func decodeOp(b []byte) (Op, []byte, error) {
	var op Op
	if len(b) < 1 {
		return op, nil, fmt.Errorf("truncated op kind")
	}
	op.Kind = OpKind(b[0])
	if op.Kind >= numOpKinds {
		return op, nil, fmt.Errorf("unknown op kind %d", b[0])
	}
	b = b[1:]
	var v32 uint32
	var err error
	if v32, b, err = gu32(b); err != nil {
		return op, nil, err
	}
	op.Proc = int(v32)
	if v32, b, err = gu32(b); err != nil {
		return op, nil, err
	}
	op.Obj = int(v32)
	if v32, b, err = gu32(b); err != nil {
		return op, nil, err
	}
	op.Child = int(v32)
	if v32, b, err = gu32(b); err != nil {
		return op, nil, err
	}
	op.CPU = int(v32)
	if op.Pages, b, err = gu64(b); err != nil {
		return op, nil, err
	}
	if op.Page, b, err = gu64(b); err != nil {
		return op, nil, err
	}
	if len(b) < 2 {
		return op, nil, fmt.Errorf("truncated op flags")
	}
	op.Val, op.Shared = b[0], b[1] != 0
	b = b[2:]
	if v32, b, err = gu32(b); err != nil {
		return op, nil, err
	}
	if uint64(v32) > uint64(len(b)) {
		return op, nil, fmt.Errorf("truncated op path")
	}
	op.Path = string(b[:v32])
	return op, b[v32:], nil
}

func pu32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func pu64(b []byte, v uint64) []byte {
	return pu32(pu32(b, uint32(v)), uint32(v>>32))
}

func gu32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("truncated u32")
	}
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return v, b[4:], nil
}

func gu64(b []byte) (uint64, []byte, error) {
	lo, b, err := gu32(b)
	if err != nil {
		return 0, nil, err
	}
	hi, b, err := gu32(b)
	if err != nil {
		return 0, nil, err
	}
	return uint64(lo) | uint64(hi)<<32, b, nil
}

// replaySpan applies trace[from:to] to one world, advancing the model
// alongside (the model gates validity and supplies expected read
// values, exactly as the differential replay does). The caller owns
// the model across spans.
func replaySpan(w world, mdl *model, trace []Op, from, to int) *Failure {
	for i := from; i < to; i++ {
		op := trace[i]
		valid, want := mdl.apply(op)
		if !valid {
			continue
		}
		if op.Kind == OpRead {
			got, err := w.readback(op)
			if err != nil {
				return &Failure{OpIndex: i, World: w.name(), Reason: fmt.Sprintf("%s: %v", op, err)}
			}
			if got != want {
				return &Failure{OpIndex: i, World: w.name(),
					Reason: fmt.Sprintf("%s: read %#02x, model says %#02x", op, got, want)}
			}
		} else if err := w.apply(op); err != nil {
			return &Failure{OpIndex: i, World: w.name(), Reason: fmt.Sprintf("%s: %v", op, err)}
		}
		// Drive the tier engine exactly as the differential replay does,
		// so a tiered world's reconstruction follows the same migration
		// schedule (no-op without tiering).
		w.tierStep(i)
	}
	return nil
}

// capture freezes a world's observable machine state: per-CPU
// clocks/RNGs/counters, every registered stat set, and a content
// checksum of materialized physical memory. It advances no clock.
func capture(w world) (*sim.MachineState, uint64) {
	return w.machine().CaptureState(), w.memory().ContentChecksum()
}

// BuildSnapshot runs the named configuration over the first `at` ops
// of the seeded trace and checkpoints it. The embedded trace is the
// FULL trace, so a restored machine can finish the run.
func BuildSnapshot(config string, opts Options, at int) (*snapshot.Snapshot, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	if at < 0 || at > len(trace) {
		return nil, fmt.Errorf("check: snapshot point %d outside trace [0,%d]", at, len(trace))
	}
	w, err := newWorld(config, opts.CPUs, opts.Seed, opts.Tier)
	if err != nil {
		return nil, err
	}
	if f := replaySpan(w, newModel(opts.CPUs), trace, 0, at); f != nil {
		return nil, fmt.Errorf("check: trace fails before snapshot point: %v", f)
	}
	st, sum := capture(w)
	return &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Config:   config,
			CPUs:     opts.CPUs,
			Seed:     opts.Seed,
			SnapAt:   at,
			TraceOps: len(trace),
			Tier:     opts.Tier,
		},
		Machine:     st,
		Trace:       EncodeTrace(trace),
		MemChecksum: sum,
	}, nil
}

// restoreWorld reconstructs the machine a snapshot captured: build the
// configuration fresh and re-execute the recorded prefix. The restored
// world is bit-identical going forward — which verifyRestored proves.
// The returned model has consumed the same prefix and is ready to
// continue the trace.
func restoreWorld(snap *snapshot.Snapshot) (world, *model, []Op, error) {
	trace, err := DecodeTrace(snap.Trace)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(trace) != snap.Meta.TraceOps {
		return nil, nil, nil, fmt.Errorf("check: snapshot meta says %d ops, trace holds %d", snap.Meta.TraceOps, len(trace))
	}
	if snap.Meta.SnapAt < 0 || snap.Meta.SnapAt > len(trace) {
		return nil, nil, nil, fmt.Errorf("check: snapshot point %d outside trace [0,%d]", snap.Meta.SnapAt, len(trace))
	}
	w, err := newWorld(snap.Meta.Config, snap.Meta.CPUs, snap.Meta.Seed, snap.Meta.Tier)
	if err != nil {
		return nil, nil, nil, err
	}
	mdl := newModel(snap.Meta.CPUs)
	if f := replaySpan(w, mdl, trace, 0, snap.Meta.SnapAt); f != nil {
		return nil, nil, nil, fmt.Errorf("check: restore replay: %v", f)
	}
	return w, mdl, trace, nil
}

// verifyRestored proves a reconstructed world matches a captured
// state: machine state diff, memory content checksum, and a full
// invariant sweep.
func verifyRestored(w world, wantState *sim.MachineState, wantSum uint64, what string) error {
	st, sum := capture(w)
	if d := st.Diff(wantState); d != "" {
		return fmt.Errorf("check: %s: machine state diverged: %s", what, d)
	}
	if sum != wantSum {
		return fmt.Errorf("check: %s: memory content checksum %#x, want %#x", what, sum, wantSum)
	}
	if err := w.check(); err != nil {
		return fmt.Errorf("check: %s: invariants: %v", what, err)
	}
	return nil
}

// VerifySnapshot restores a snapshot and proves the reconstruction
// bit-identical to the captured state.
func VerifySnapshot(snap *snapshot.Snapshot) error {
	w, _, _, err := restoreWorld(snap)
	if err != nil {
		return err
	}
	return verifyRestored(w, snap.Machine, snap.MemChecksum, "restore")
}

// CrashRecoverReport summarizes one configuration's crash-and-recover
// run.
type CrashRecoverReport struct {
	Config         string
	SnapAt         int // ops executed before the checkpoint
	CrashAt        int // ops executed before the crash
	RecoveredAt    int // ops recovered to (CrashAt, or CrashAt-1 when torn)
	JournalRecords int // records replayed from the journal
	TornBytes      int // journal bytes discarded as a torn tail
	SnapshotBytes  int // encoded checkpoint size
}

// CrashRecover runs the crash-consistency experiment for every
// selected configuration:
//
//  1. An uncrashed CONTROL executes the whole trace, capturing its
//     state at crashAt and at the end.
//  2. The CRASHED timeline executes to snapAt, checkpoints (the
//     snapshot round-trips through the binary format), journals each
//     op in [snapAt, crashAt) as it executes — then the machine
//     crashes: volatile memory is dropped and the world abandoned.
//     With torn, the crash also cuts the journal mid-record, losing
//     the last op.
//  3. RECOVERY builds a fresh machine, replays the checkpoint prefix,
//     proves it bit-identical to the snapshot, replays the journal's
//     valid records (proving the result bit-identical to the control
//     at crashAt when the tail isn't torn), finishes the trace, and
//     proves the final state bit-identical to the control — plus a
//     final-content comparison against the model oracle.
//
// A non-nil Failure reports a persistence bug; error reports setup
// problems.
func CrashRecover(opts Options, snapAt, crashAt int, torn bool) ([]*CrashRecoverReport, *Failure, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	if snapAt < 0 || snapAt > crashAt || crashAt > len(trace) {
		return nil, nil, fmt.Errorf("check: need 0 <= snapAt(%d) <= crashAt(%d) <= %d", snapAt, crashAt, len(trace))
	}
	if torn && crashAt == snapAt {
		return nil, nil, fmt.Errorf("check: a torn tail needs at least one journaled op")
	}
	var reports []*CrashRecoverReport
	for _, cfg := range opts.Configs {
		rep, f, err := crashRecoverOne(cfg, opts, trace, snapAt, crashAt, torn)
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

func crashRecoverOne(cfg string, opts Options, trace []Op, snapAt, crashAt int, torn bool) (*CrashRecoverReport, *Failure, error) {
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

	// Crashed timeline: run to snapAt, checkpoint, journal, crash.
	crashed, err := newWorld(cfg, opts.CPUs, opts.Seed, opts.Tier)
	if err != nil {
		return nil, nil, err
	}
	crashedMdl := newModel(opts.CPUs)
	if f := replaySpan(crashed, crashedMdl, trace, 0, snapAt); f != nil {
		f.Reason = "crashed timeline: " + f.Reason
		return nil, f, nil
	}
	snapState, snapSum := capture(crashed)
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Config: cfg, CPUs: opts.CPUs, Seed: opts.Seed,
			SnapAt: snapAt, TraceOps: len(trace), Tier: opts.Tier,
		},
		Machine:     snapState,
		Trace:       EncodeTrace(trace),
		MemChecksum: snapSum,
	}
	// The checkpoint round-trips through the on-media format, so the
	// recovery below trusts only what Save durably wrote.
	var media bytes.Buffer
	if err := snap.Save(&media); err != nil {
		return nil, nil, err
	}
	snapshotBytes := media.Len()
	snap, err = snapshot.Load(&media)
	if err != nil {
		return nil, nil, err
	}
	jnl := &snapshot.Journal{}
	if f := replaySpan(crashed, crashedMdl, trace, snapAt, crashAt); f != nil {
		f.Reason = "crashed timeline: " + f.Reason
		return nil, f, nil
	}
	// Write-ahead order: every op in [snapAt, crashAt) reached the
	// journal before the crash (appended here in one batch — the
	// records are pure functions of the trace, and tooling charges no
	// simulated time either way).
	for i := snapAt; i < crashAt; i++ {
		jnl.Append(encodeOp(nil, trace[i]))
	}
	onMedia := jnl.Encode()
	if torn {
		// The crash cut the journal mid-record: the last record's CRC
		// never hit media, so recovery must discard it.
		onMedia = onMedia[:len(onMedia)-1]
	}
	// Power fails: DRAM contents vanish and the machine halts. The
	// crashed world is never consulted again.
	crashed.memory().Crash()

	// Recovery: reconstruct from the checkpoint, prove it, replay the
	// journal's valid prefix, finish the trace, prove the end state.
	recovered, recoveredMdl, rtrace, err := restoreWorld(snap)
	if err != nil {
		return nil, nil, err
	}
	if err := verifyRestored(recovered, snap.Machine, snap.MemChecksum, "recovery restore"); err != nil {
		return nil, &Failure{OpIndex: snapAt, World: cfg, Reason: err.Error()}, nil
	}
	decoded, tornBytes := snapshot.DecodeJournal(onMedia)
	for i, rec := range decoded.Records() {
		op, rest, err := decodeOp(rec)
		if err != nil || len(rest) != 0 {
			return nil, &Failure{OpIndex: snapAt + i, World: cfg,
				Reason: fmt.Sprintf("journal record %d undecodable: %v (%d trailing bytes)", i, err, len(rest))}, nil
		}
		if op != trace[snapAt+i] {
			return nil, &Failure{OpIndex: snapAt + i, World: cfg,
				Reason: fmt.Sprintf("journal record %d decoded to %s, journaled %s", i, op, trace[snapAt+i])}, nil
		}
	}
	recoveredAt := snapAt + decoded.Len()
	wantRecords := crashAt - snapAt
	if torn {
		wantRecords--
	}
	if decoded.Len() != wantRecords {
		return nil, &Failure{OpIndex: recoveredAt, World: cfg,
			Reason: fmt.Sprintf("journal recovered %d records, want %d (torn=%v)", decoded.Len(), wantRecords, torn)}, nil
	}
	if f := replaySpan(recovered, recoveredMdl, rtrace, snapAt, recoveredAt); f != nil {
		f.Reason = "journal replay: " + f.Reason
		return nil, f, nil
	}
	if !torn {
		// With a clean journal, recovery lands exactly on the control's
		// crash-instant state. A torn tail recovers one op earlier, so
		// there is no control capture to compare against — the final
		// verification below still covers it.
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
	return &CrashRecoverReport{
		Config:         cfg,
		SnapAt:         snapAt,
		CrashAt:        crashAt,
		RecoveredAt:    recoveredAt,
		JournalRecords: decoded.Len(),
		TornBytes:      tornBytes,
		SnapshotBytes:  snapshotBytes,
	}, nil, nil
}

// crashRecoverStage is the randomized crash point selection Run uses
// when Options.CrashRecover is set: a seeded choice of crash op,
// checkpoint at its midpoint, and a coin flip for a torn tail.
func crashRecoverStage(opts Options, traceLen int) (snapAt, crashAt int, torn bool) {
	rng := sim.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15)
	crashAt = 1 + int(rng.Uint64n(uint64(traceLen)))
	snapAt = crashAt / 2
	torn = crashAt > snapAt && rng.Uint64n(2) == 1
	return snapAt, crashAt, torn
}
