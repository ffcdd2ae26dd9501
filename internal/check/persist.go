package check

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file bridges the harness to the persistence subsystem
// (internal/snapshot): it owns the operation-trace codec embedded in
// snapshots and journal records, builds snapshots, and implements
// restore-by-reexecution with its bit-identity proof. The
// crash-and-recover stage built on it lives in persist_incr.go.
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

// minOpBytes is the encoded size of an op with an empty path.
const minOpBytes = 39

// DecodeTrace parses an EncodeTrace payload.
func DecodeTrace(b []byte) ([]Op, error) {
	n, b, err := gu32(b)
	if err != nil {
		return nil, err
	}
	// The count is untrusted: preallocate no more ops than the
	// remaining bytes can hold.
	trace := make([]Op, 0, min(int(n), len(b)/minOpBytes))
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
	if b[1] > 1 {
		return op, nil, fmt.Errorf("op shared flag %d, want 0 or 1", b[1])
	}
	op.Val, op.Shared = b[0], b[1] == 1
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

// rebuild reconstructs the machine a base snapshot describes at op
// upTo: build the configuration fresh, re-execute the recorded prefix,
// and prove the result bit-identical to the captured want/wantSum. The
// returned model has consumed the same prefix and is ready to continue
// the trace.
func rebuild(base *snapshot.Snapshot, upTo int, want *sim.MachineState, wantSum uint64, what string) (world, *model, []Op, error) {
	trace, err := DecodeTrace(base.Trace)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := base.Meta
	if len(trace) != meta.TraceOps {
		return nil, nil, nil, fmt.Errorf("check: snapshot meta says %d ops, trace holds %d", meta.TraceOps, len(trace))
	}
	if meta.SnapAt < 0 || meta.SnapAt > upTo || upTo > len(trace) {
		return nil, nil, nil, fmt.Errorf("check: need 0 <= snapshot point %d <= capture point %d <= %d", meta.SnapAt, upTo, len(trace))
	}
	w, err := newWorld(meta.Config, meta.CPUs, meta.Seed, meta.Tier)
	if err != nil {
		return nil, nil, nil, err
	}
	mdl := newModel(meta.CPUs)
	if f := replaySpan(w, mdl, trace, 0, upTo); f != nil {
		return nil, nil, nil, fmt.Errorf("check: %s replay: %v", what, f)
	}
	if err := verifyRestored(w, want, wantSum, what); err != nil {
		return nil, nil, nil, err
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
	_, _, _, err := rebuild(snap, snap.Meta.SnapAt, snap.Machine, snap.MemChecksum, "restore")
	return err
}
