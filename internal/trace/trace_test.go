package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func genSpec(ops int, seed uint64) GenSpec {
	return GenSpec{
		Name:      "test",
		Ops:       ops,
		SizeDist:  workload.SmallHeavy,
		MinPages:  1,
		MaxPages:  256,
		TouchFrac: 0.6,
		WriteFrac: 0.4,
		Seed:      seed,
	}
}

func TestGenerateValidates(t *testing.T) {
	tr, err := Generate(genSpec(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) < 500 {
		t.Fatalf("only %d ops", len(tr.Ops))
	}
	// Trailing frees close all allocations.
	live := 0
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpAlloc:
			live++
		case OpFree:
			live--
		}
	}
	if live != 0 {
		t.Fatalf("%d allocations never freed", live)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenSpec{Ops: 0}); err == nil {
		t.Fatal("zero ops accepted")
	}
	bad := genSpec(10, 1)
	bad.TouchFrac = 1.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad fraction accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr, err := Generate(genSpec(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("round trip: %q/%d vs %q/%d", got.Name, len(got.Ops), tr.Name, len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"trace":"x","ops":5}` + "\n")); err == nil {
		t.Fatal("op-count mismatch accepted")
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	cases := []Trace{
		{Ops: []Op{{Kind: OpFree, ID: 1}}},
		{Ops: []Op{{Kind: OpAlloc, ID: 1, Pages: 0}}},
		{Ops: []Op{{Kind: OpAlloc, ID: 1, Pages: 2}, {Kind: OpTouch, ID: 1, Page: 2}}},
		{Ops: []Op{{Kind: OpAlloc, ID: 1, Pages: 2}, {Kind: OpAlloc, ID: 1, Pages: 2}}},
		{Ops: []Op{{Kind: "explode", ID: 1}}},
		{Ops: []Op{{Kind: OpAlloc, ID: 1, Pages: 1}, {Kind: OpFree, ID: 1}, {Kind: OpTouch, ID: 1}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Fatalf("case %d: invalid trace accepted", i)
		}
	}
}

// replayMachine builds both backends over one machine.
func replayMachine(t *testing.T) (*sim.Clock, *vm.AddressSpace, *core.Process) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 1 << 18, NVMFrames: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := vm.NewKernel(clock, &params, memory, vm.Config{PoolBase: 0, PoolFrames: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(clock, &params, memory, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	return clock, as, p
}

func TestReplayOnBothBackends(t *testing.T) {
	tr, err := Generate(genSpec(800, 3))
	if err != nil {
		t.Fatal(err)
	}
	clock, as, p := replayMachine(t)

	repVM, err := Replay(tr, NewVMTarget(as, false), clock)
	if err != nil {
		t.Fatalf("vm replay: %v", err)
	}
	repFOM, err := Replay(tr, NewFOMTarget(p), clock)
	if err != nil {
		t.Fatalf("fom replay: %v", err)
	}
	if repVM.Ops != len(tr.Ops) || repFOM.Ops != len(tr.Ops) {
		t.Fatal("op counts wrong")
	}
	if repVM.Allocs != repFOM.Allocs || repVM.Touches != repFOM.Touches {
		t.Fatal("replays diverged in op mix")
	}
	// First touches fault on the baseline, so its touch time dominates.
	if repVM.TouchTime <= repFOM.TouchTime {
		t.Fatalf("baseline touch time (%v) not above FOM (%v)", repVM.TouchTime, repFOM.TouchTime)
	}
	if !strings.Contains(repVM.String(), "baseline-demand") {
		t.Fatalf("report: %s", repVM)
	}
}

func TestReplayRejectsInvalidTrace(t *testing.T) {
	clock, as, _ := replayMachine(t)
	bad := &Trace{Ops: []Op{{Kind: OpFree, ID: 9}}}
	if _, err := Replay(bad, NewVMTarget(as, false), clock); err == nil {
		t.Fatal("invalid trace replayed")
	}
}

// TestReplayRejectsHugeAlloc: an alloc whose byte length wraps 64 bits
// fails at op 0 with an error on every backend, instead of creating a
// region that only the next touch finds missing.
func TestReplayRejectsHugeAlloc(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Kind: OpAlloc, ID: 1, Pages: 1 << 62},
		{Kind: OpTouch, ID: 1, Page: 0, Write: true},
	}}
	clock, as, p := replayMachine(t)
	for _, target := range []Target{NewVMTarget(as, false), NewVMTarget(as, true), NewFOMTarget(p)} {
		_, err := Replay(tr, target, clock)
		if err == nil || !strings.Contains(err.Error(), "op 0 (alloc") {
			t.Errorf("%s: err = %v, want a failure at op 0", target.Name(), err)
		}
	}
}

// Property: generated traces always validate and always replay cleanly
// on file-only memory, leaving no leaked frames.
func TestGenerateReplayQuickProperty(t *testing.T) {
	fn := func(seed uint64) bool {
		tr, err := Generate(genSpec(300, seed))
		if err != nil {
			return false
		}
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 4096, NVMFrames: 1 << 18})
		if err != nil {
			return false
		}
		sys, err := core.NewSystem(clock, &params, memory, core.Options{})
		if err != nil {
			return false
		}
		p, err := sys.NewProcess(core.Ranges)
		if err != nil {
			return false
		}
		free0 := sys.FreeFrames()
		if _, err := Replay(tr, NewFOMTarget(p), clock); err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		return sys.FreeFrames() == free0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
