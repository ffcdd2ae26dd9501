package tier

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// fakeBackend relocates frames by bookkeeping alone: each migration
// "moves" the page to the next unused frame of the target region and
// reports it via Moved, exactly as a real backend would.
type fakeBackend struct {
	eng      *Engine
	memory   *mem.Memory
	nextFast mem.Frame
	nextSlow mem.Frame
	decline  bool
	moves    int
}

func (b *fakeBackend) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	if b.decline {
		return 0, false
	}
	var nf mem.Frame
	if to == mem.DRAM {
		nf = b.nextFast
		b.nextFast++
	} else {
		nf = b.nextSlow
		b.nextSlow++
	}
	b.eng.Moved(f, nf)
	b.moves++
	return 1, true
}

// newTestRig builds a 2-region memory, a single-CPU machine, and an
// engine whose fake backend hands out fresh frames per tier.
func newTestRig(t *testing.T, policy Policy, fastCap uint64) (*Engine, *fakeBackend, *sim.CPU) {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 1 << 10, NVMFrames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(&params, memory, policy, fastCap)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{eng: eng, memory: memory, nextFast: 512, nextSlow: mem.Frame(1<<10 + 2048)}
	eng.SetBackend(b)
	return eng, b, machine.CPU(0)
}

// slowFrame returns the i-th frame of the NVM region (frames start
// after DRAM).
func slowFrame(i uint64) mem.Frame { return mem.Frame(1<<10 + i) }

func TestTrackUntrackOccupancy(t *testing.T) {
	eng, _, _ := newTestRig(t, None, 64)
	for i := uint64(0); i < 10; i++ {
		eng.Track(mem.Frame(i))
	}
	for i := uint64(0); i < 5; i++ {
		eng.Track(slowFrame(i))
	}
	fast, slow := eng.Occupancy()
	if fast != 10 || slow != 5 {
		t.Fatalf("occupancy = (%d, %d), want (10, 5)", fast, slow)
	}
	for i := uint64(0); i < 10; i += 2 {
		eng.Untrack(mem.Frame(i))
	}
	fast, slow = eng.Occupancy()
	if fast != 5 || slow != 5 {
		t.Fatalf("after untrack: occupancy = (%d, %d), want (5, 5)", fast, slow)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if eng.Tracked() != 10 {
		t.Fatalf("Tracked() = %d, want 10", eng.Tracked())
	}
}

func TestDoubleTrackPanics(t *testing.T) {
	eng, _, _ := newTestRig(t, None, 64)
	eng.Track(3)
	defer func() {
		if recover() == nil {
			t.Fatal("double Track did not panic")
		}
	}()
	eng.Track(3)
}

func TestMovedCarriesState(t *testing.T) {
	eng, _, _ := newTestRig(t, None, 64)
	eng.Track(slowFrame(0))
	eng.Record(slowFrame(0), false)
	eng.Moved(slowFrame(0), 7) // slow -> fast
	fast, slow := eng.Occupancy()
	if fast != 1 || slow != 0 {
		t.Fatalf("occupancy after Moved = (%d, %d), want (1, 0)", fast, slow)
	}
	if _, tracked := eng.TierOf(slowFrame(0)); tracked {
		t.Fatal("old frame still tracked after Moved")
	}
	if kind, tracked := eng.TierOf(7); !tracked || kind != mem.DRAM {
		t.Fatalf("new frame TierOf = (%v, %v), want (DRAM, true)", kind, tracked)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteOnPump(t *testing.T) {
	eng, b, cpu := newTestRig(t, Promote, 64)
	for i := uint64(0); i < 4; i++ {
		eng.Track(slowFrame(i))
	}
	before := TelemetrySnapshot()
	eng.Record(slowFrame(1), true)
	eng.Record(slowFrame(3), false)
	if b.moves != 0 {
		t.Fatal("Record must not migrate synchronously")
	}
	eng.Pump(cpu)
	if b.moves != 2 {
		t.Fatalf("pump performed %d migrations, want 2", b.moves)
	}
	d := TelemetrySnapshot().Sub(before)
	if d.Promotions != 2 || d.PagesMoved != 2 {
		t.Fatalf("telemetry delta = %+v, want 2 promotions / 2 pages", d)
	}
	fast, slow := eng.Occupancy()
	if fast != 2 || slow != 2 {
		t.Fatalf("occupancy = (%d, %d), want (2, 2)", fast, slow)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteStallsWhenFastFull(t *testing.T) {
	eng, b, cpu := newTestRig(t, Promote, 2)
	eng.Track(0)
	eng.Track(1) // fast tier at capacity
	eng.Track(slowFrame(0))
	before := TelemetrySnapshot()
	eng.Record(slowFrame(0), false)
	eng.Pump(cpu)
	if b.moves != 0 {
		t.Fatal("promotion proceeded with a full fast tier under Promote")
	}
	if d := TelemetrySnapshot().Sub(before); d.Stalls == 0 {
		t.Fatal("full fast tier did not count a stall")
	}
}

func TestSmartSwapsColdestOut(t *testing.T) {
	eng, b, cpu := newTestRig(t, Smart, 2)
	eng.Track(0)
	eng.Track(1)
	eng.Track(slowFrame(0))
	// Heat frame 1 so frame 0 is the coldest fast frame, then age the
	// bits into history.
	eng.Record(mem.Frame(1), false)
	eng.Scan(cpu, 3)
	before := TelemetrySnapshot()
	eng.Record(slowFrame(0), false)
	eng.Pump(cpu)
	if b.moves != 2 {
		t.Fatalf("smart swap performed %d migrations, want 2 (demote + promote)", b.moves)
	}
	d := TelemetrySnapshot().Sub(before)
	if d.Promotions != 1 || d.Demotions != 1 || d.Swaps != 1 {
		t.Fatalf("telemetry delta = %+v, want 1 promotion / 1 demotion / 1 swap", d)
	}
	// Frame 0 (cold) went to the slow tier; the hot slow frame came in.
	if _, tracked := eng.TierOf(mem.Frame(0)); tracked {
		t.Fatal("victim frame still tracked under its old number")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanDemotesColdUnderPressure(t *testing.T) {
	eng, b, cpu := newTestRig(t, Demote, 8) // highWater 7, lowWater 6
	for i := uint64(0); i < 8; i++ {
		eng.Track(mem.Frame(i))
	}
	// All frames cold (never recorded): one scan round must demote down
	// to the low-water mark.
	before := TelemetrySnapshot()
	eng.Scan(cpu, 8)
	fast, _ := eng.Occupancy()
	if fast > 6 {
		t.Fatalf("fast occupancy %d after scan, want <= lowWater (6)", fast)
	}
	if b.moves == 0 {
		t.Fatal("no demotions under pressure")
	}
	d := TelemetrySnapshot().Sub(before)
	if d.Demotions == 0 || d.Scans == 0 {
		t.Fatalf("telemetry delta = %+v, want demotions and scans", d)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanSparesHotFrames(t *testing.T) {
	eng, _, cpu := newTestRig(t, Demote, 8)
	for i := uint64(0); i < 8; i++ {
		eng.Track(mem.Frame(i))
		eng.Record(mem.Frame(i), false)
	}
	eng.Scan(cpu, 8) // ages access bits into hot history
	for i := uint64(0); i < 8; i++ {
		eng.Record(mem.Frame(i), false)
	}
	before := TelemetrySnapshot()
	eng.Scan(cpu, 8)
	// Every frame is warm; the fallback may demote exactly the
	// least-hot one, no more.
	if d := TelemetrySnapshot().Sub(before); d.Demotions > 1 {
		t.Fatalf("%d hot frames demoted, want at most the fallback's 1", d.Demotions)
	}
}

func TestDeclinedMigrationIsStall(t *testing.T) {
	eng, b, cpu := newTestRig(t, Promote, 64)
	b.decline = true
	eng.Track(slowFrame(0))
	before := TelemetrySnapshot()
	eng.Record(slowFrame(0), false)
	eng.Pump(cpu)
	if d := TelemetrySnapshot().Sub(before); d.Stalls != 1 || d.Promotions != 0 {
		t.Fatalf("telemetry delta = %+v, want 1 stall / 0 promotions", d)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPumpChargesSimulatedTime(t *testing.T) {
	eng, _, cpu := newTestRig(t, Promote, 64)
	eng.Track(slowFrame(0))
	eng.Record(slowFrame(0), false)
	beforeT := cpu.Clock().Now()
	eng.Pump(cpu)
	if cpu.Clock().Now() == beforeT {
		t.Fatal("Pump with pending work charged no simulated time")
	}
}

func TestRingCompaction(t *testing.T) {
	eng, _, cpu := newTestRig(t, None, 1<<9)
	for i := uint64(0); i < 256; i++ {
		eng.Track(mem.Frame(i))
	}
	for i := uint64(0); i < 200; i++ {
		eng.Untrack(mem.Frame(i))
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Scanning after compaction must still visit every live frame.
	eng.Scan(cpu, 56)
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if eng.Tracked() != 56 {
		t.Fatalf("Tracked() = %d, want 56", eng.Tracked())
	}
}

func TestUntrackedRecordIgnored(t *testing.T) {
	eng, b, cpu := newTestRig(t, Promote, 64)
	eng.Record(slowFrame(9), true) // never tracked
	eng.Pump(cpu)
	if b.moves != 0 {
		t.Fatal("untracked frame migrated")
	}
}

func TestPendingDropsUntrackedFrame(t *testing.T) {
	eng, b, cpu := newTestRig(t, Promote, 64)
	eng.Track(slowFrame(0))
	eng.Record(slowFrame(0), false)
	eng.Untrack(slowFrame(0)) // freed before the pump
	eng.Pump(cpu)
	if b.moves != 0 {
		t.Fatal("freed frame migrated")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsMemoryBeyondFrameTable(t *testing.T) {
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 1 << 10, NVMFrames: mem.MaxTableFrames})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(&params, memory, Smart, 64); err == nil {
		t.Fatalf("engine over %d frames created, want an error", memory.TotalFrames())
	}
}

// TestFastMatchesKind: the engine's hoisted fast-tier bounds agree with
// mem.Kind on every frame near a region edge, including frames past
// the end of memory (Kind counts those as DRAM), for machines with one
// or both regions.
func TestFastMatchesKind(t *testing.T) {
	params := sim.DefaultParams()
	for _, cfg := range []mem.Config{
		{DRAMFrames: 64, NVMFrames: 128},
		{DRAMFrames: 64},
		{NVMFrames: 128},
	} {
		machine := sim.NewMachine(&params, 1, 1)
		memory, err := mem.New(machine.Clock(), &params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(&params, memory, Smart, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []mem.Frame{0, 1, 63, 64, 65, 127, 128, 191, 192, 193, 1 << 40, ringDead - 1} {
			if got, want := eng.fast(f), memory.Kind(f) == mem.DRAM; got != want {
				t.Fatalf("%+v: fast(%d) = %v, Kind says DRAM = %v", cfg, f, got, want)
			}
		}
	}
}
