// Command o1perf is the repository's benchmark. It generates seeded
// inputs in one process, drives the five memory configurations —
// baseline (vm), fom (memfs extent files), pbm (core SharedPT), ranges
// (core Ranges) and usermode (usermode + heap) — through their public
// APIs, checks the simulated results, and prints one JSON line of
// metrics.
//
// Usage:
//
//	o1perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The system has two clocks. Host time is what the benchmark measures
// and later changes make faster; simulated time is the reproduction's
// claim and must come out bit-identical run to run. Every workload's
// measured phase runs fixed, seed-determined rounds of operations
// until --seconds have passed, then sweeps every machine's
// invariants. The first rounds (one pass over the workload's inputs)
// are the canonical measurement: their simulated clocks, per-op
// simulated latencies and layer counters are folded into a digest,
// compared against digests.json for the default seed, and they alone
// feed the simulated (mean per round), count and allocation metrics.
// Throughput and peak heap are medians over every round; throughput
// and set-up time are scaled to a reference host speed measured in the
// same run (calib.go).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// work twice, untraced and then with a span around every benchmark call
// into a layer, and prints the per-layer metrics plus the tracing
// overhead; the two runs must produce the same digest.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/tier"
)

// configs lists the five configurations in reporting order.
var configs = []string{"baseline", "fom", "pbm", "ranges", "usermode"}

// defaultSeed is the seed whose digests are committed in digests.json.
const defaultSeed = 1

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

//go:embed digests.json
var digestsJSON []byte

// spec is one set of inputs the benchmark runs.
type spec struct {
	name string
	// why records why the workload exists and which layers it is meant
	// to load or bypass; later changes cite workloads by name.
	why string
	// setup builds machines and inputs for seed. tiny shrinks the work
	// for the benchmark's own test.
	setup func(seed uint64, tiny bool, tr *tracer) (instance, error)
	// canon is the number of rounds in the canonical measurement (the
	// digest, the simulated times, counts and host allocation); the
	// measured phase runs at least that many.
	canon int
}

// instance is a set-up workload, ready to run rounds.
type instance interface {
	// round runs one fixed, seed-determined pass of the workload.
	round(r *run) error
	// simNanos returns each configuration's machine-wide simulated time
	// so far, in nanoseconds.
	simNanos() map[string]int64
	// counters adds the layer counters (cumulative) to c.
	counters(c map[string]uint64)
	// state folds every simulated clock, RNG state and registered
	// counter of the instance's machines into d.
	state(d *digest)
	// machines lists the machines the end-of-phase invariant sweep
	// checks.
	machines() []*sim.Machine
}

var workloads = []spec{mapPopulate, sparseRead, tenantChurn, checkRecover}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// run is the benchmark state of one measured phase.
type run struct {
	tr        *tracer
	digestOn  bool             // true during the canonical rounds
	lanes     [maxLanes]digest // per-lane digests, merged in lane order
	attempted int64
	failed    int64
	err       error // first failure
	trackedPk int   // vm.tracked_pages_peak
}

// done accounts one op; a non-nil err fails it.
func (r *run) done(err error) error {
	r.attempted++
	if err != nil {
		r.fail(1, err)
	}
	return err
}

// fail records n failed ops.
func (r *run) fail(n int64, err error) {
	r.failed += n
	if r.err == nil {
		r.err = err
	}
}

// lat folds one op's simulated latency into lane ln's digest.
func (r *run) lat(ln int, d sim.Time) {
	if r.digestOn {
		r.lanes[ln].add(uint64(d))
	}
}

// digest is a running 64-bit hash over simulated values.
type digest struct{ h uint64 }

func (d *digest) add(v uint64) {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	d.h = bits.RotateLeft64(d.h^v, 27)*0x9E3779B97F4A7C15 + 1
}

// addState folds a machine capture into d.
func (d *digest) addState(st *sim.MachineState) {
	d.add(uint64(st.Current))
	for _, c := range st.CPUs {
		d.add(uint64(c.Clock))
		d.add(c.RNG)
		for _, v := range c.Counters {
			d.add(v.Value)
		}
	}
	for _, s := range st.Stats {
		for _, v := range s.Counters {
			d.add(v.Value)
		}
	}
}

// measurement is the outcome of one measured phase.
type measurement struct {
	setupS     float64
	opsPerS    float64
	allocMB    float64 // Go heap allocated by the canonical rounds and the sweep
	peakHeapMB float64
	simMS      map[string]float64
	digest     string
	attempted  int64
	failed     int64
	err        error
	rounds     int
	canonOps   int64
	counts     map[string]float64 // canonical-round deltas of layer counters
	host       map[string]float64 // per-round means, peaks and fractions of host quantities
	sweepS     float64            // host seconds of the end-of-phase invariant sweep
	refS       float64            // median duration of the reference kernel
	rawOpsPerS float64            // throughput before scaling to the reference host
	tr         *tracer
	setupTr    *tracer // the last set-up's spans (traced runs)
}

// runtime/metrics samples read at phase boundaries.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// heapSampler samples the live heap the last GC marked, every
// millisecond (often enough to see every GC cycle), and keeps the peak
// since the last take.
type heapSampler struct {
	peak   atomic.Uint64
	sample []metrics.Sample // owned by the sampling goroutine
	done   chan struct{}
	exited chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go func() {
		defer close(h.exited)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			h.observe()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	metrics.Read(h.sample)
	v := h.sample[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// take returns the peak since the previous take and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop returns once the sampling goroutine has exited.
func (h *heapSampler) stop() {
	close(h.done)
	<-h.exited
}

// snapshot reads every layer counter and the sync/tier telemetry.
func snapshot(inst instance) map[string]uint64 {
	c := make(map[string]uint64)
	inst.counters(c)
	st := sim.TelemetrySnapshot()
	c["sim.sync_points"] = st.SyncPoints
	c["sim.domain_cpus"] = st.DomainCPUs
	c["sim.ipi_rounds"] = st.IPIRounds
	c["sim.coalesced_invals"] = st.CoalescedInvals
	c["sim.barrier_wait_ns"] = st.BarrierWaitNs
	tt := tier.TelemetrySnapshot()
	c["tier.promotions"] = tt.Promotions
	c["tier.demotions"] = tt.Demotions
	c["tier.stalls"] = tt.Stalls
	c["tier.pages_moved"] = tt.PagesMoved
	c["tier.extent_moves"] = tt.ExtentMoves
	c["tier.splits"] = tt.Splits
	c["tier.migrate_ns"] = tt.MigrateTime
	return c
}

// measure sets the workload up (setupRepeats times) and runs its
// measured phase for at least the canonical rounds and until seconds
// have passed.
func measure(w spec, seed uint64, seconds float64, tiny, traced bool) (*measurement, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m := &measurement{tr: tr}
	var inst instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		inst = nil
		runtime.GC()
		// The last set-up is traced on its own, so its calls into the
		// layers do not count toward the measured rounds.
		var str *tracer
		if traced && i == setupRepeats-1 {
			str = newTracer()
			m.setupTr = str
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, tiny, str)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.setupS = median(setups)

	runtime.GC()
	r := &run{tr: tr, digestOn: true}
	heapPeaks := startHeapSampler()
	sim0 := inst.simNanos()
	c0 := snapshot(inst)
	rt0 := readRuntime()
	pause0 := gcPauseNs()
	start := time.Now()

	// Each round's throughput and peak live heap are measured on their
	// own and the medians reported, so a round slowed by something
	// outside the benchmark, or one seed's heavier trace, does not move
	// the result.
	var rates, peaks, refs []float64
	var lastRef time.Time
	var roundErr error
	var c1 map[string]uint64
	var st digest
	// Each canonical round's simulated time per configuration; the
	// reported value is their mean, so workloads whose rounds replay
	// different seeds average over as many of them as possible.
	simRounds := make(map[string][]float64, len(configs))
	simPrev := sim0
	canon := w.canon
	if tiny {
		canon = 1
	}
	for roundErr == nil && (m.rounds < canon || time.Since(start).Seconds() < seconds) {
		if time.Since(lastRef) >= refEvery {
			refs = append(refs, reference())
			lastRef = time.Now()
		}
		heapPeaks.take()
		ops0, t0 := r.attempted, time.Now()
		roundErr = inst.round(r)
		rates = append(rates, float64(r.attempted-ops0)/time.Since(t0).Seconds())
		peaks = append(peaks, float64(heapPeaks.take()))
		m.rounds++
		if m.rounds <= canon {
			now := inst.simNanos()
			for _, cfg := range configs {
				simRounds[cfg] = append(simRounds[cfg], float64(now[cfg]-simPrev[cfg])/1e6)
				st.add(uint64(now[cfg] - simPrev[cfg]))
			}
			simPrev = now
		}
		if m.rounds == canon {
			rt1 := readRuntime()
			c1 = snapshot(inst)
			inst.state(&st)
			r.digestOn = false
			m.canonOps = r.attempted
			m.allocMB = (rt1[0] - rt0[0]) / (1 << 20)
		}
	}
	heapPeaks.stop()
	rt2 := readRuntime()
	pause1 := gcPauseNs()
	c2 := snapshot(inst)
	t0 := time.Now()
	sweep(r, inst.machines())
	m.sweepS = time.Since(t0).Seconds()
	m.allocMB += (readRuntime()[0] - rt2[0]) / (1 << 20)
	if roundErr != nil {
		r.fail(1, roundErr)
		if c1 == nil {
			c1 = c2
		}
	}

	// Host-time metrics are scaled to the reference host (calib.go).
	m.refS = median(refs)
	m.rawOpsPerS = median(rates)
	m.opsPerS = m.rawOpsPerS * m.refS / refNominal
	m.setupS *= refNominal / m.refS
	m.peakHeapMB = median(peaks) / (1 << 20)
	m.simMS = make(map[string]float64, len(configs))
	for _, cfg := range configs {
		if len(simRounds[cfg]) > 0 {
			m.simMS[cfg] = mean(simRounds[cfg])
		}
	}

	d := st
	for i := range r.lanes {
		d.add(r.lanes[i].h)
	}
	names := make([]string, 0, len(c1))
	for n := range c1 {
		if n != "sim.barrier_wait_ns" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	m.counts = make(map[string]float64, len(names))
	for _, n := range names {
		d.add(c1[n] - c0[n])
		m.counts[n] = float64(c1[n] - c0[n])
	}
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(nil, d.h))
	m.digest = hex.EncodeToString(sum[:8])

	rounds := float64(m.rounds)
	m.host = map[string]float64{
		"sim.barrier_wait_s":    float64(c2["sim.barrier_wait_ns"]-c0["sim.barrier_wait_ns"]) / 1e9 / rounds,
		"runtime.gc_cycles":     (rt2[2] - rt0[2]) / rounds,
		"runtime.gc_pause_s":    float64(pause1-pause0) / 1e9 / rounds,
		"vm.tracked_pages_peak": float64(r.trackedPk),
	}
	if cpu := rt2[4] - rt0[4]; cpu > 0 {
		m.host["runtime.gc_cpu_frac"] = (rt2[3] - rt0[3]) / cpu
	}
	m.attempted, m.failed, m.err = r.attempted, r.failed, r.err
	return m, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd returns the untraced metrics.
func endToEnd(m *measurement) map[string]metric {
	out := map[string]metric{
		"setup_s":            {m.setupS, "s"},
		"sim_ops_per_host_s": {m.opsPerS, "1/s"},
		"host_alloc_mb":      {m.allocMB, "MB"},
		"peak_heap_mb":       {m.peakHeapMB, "MB"},
	}
	for _, cfg := range configs {
		out["sim_ms."+cfg] = metric{m.simMS[cfg], "ms"}
	}
	return out
}

// hostSeconds lists the per-layer host-time metrics: self time of the
// benchmark's spans around each call, in host seconds per round. A
// RunParallel phase has no self time (its CPU contexts' spans overlap
// while they wait on each other at sync points), so sim.run_parallel_s
// is the whole phase; sim.barrier_wait_s is the gate's share.
var hostSeconds = []callID{
	cVMMmap, cVMMunmap, cVMTouch, cVMFork, cVMDestroy,
	cMemfsCreate, cMemfsWrite, cMemfsRead, cMemfsRemove,
	cCoreAlloc, cCoreMapFile, cCoreTouch, cCoreUnmap, cCoreExit,
	cUMAlloc, cUMFree, cUMExit,
	cHeapAlloc, cHeapFree,
	cSimRunParallel,
	cCheckReplay, cCheckRecover,
	cCkptBuild, cCkptSave, cCkptLoad, cCkptVerify,
}

// roundCounts lists the per-layer counts reported as deltas over the
// canonical rounds.
var roundCounts = []string{
	"vm.minor_faults", "vm.populated_pages",
	"buddy.allocs", "buddy.splits", "buddy.coalesces",
	"pagetable.pte_writes", "pagetable.node_allocs", "pagetable.walks",
	"tlb.lookups", "tlb.flushes",
	"rangetable.inserts",
	"memfs.extent_allocs",
	"core.subtree_links", "core.chunk_links",
	"usermode.queue_submits", "usermode.grants_installed", "usermode.kernel_transitions",
	"sim.sync_points", "sim.ipi_rounds", "sim.coalesced_invals",
	"tier.promotions", "tier.demotions", "tier.pages_moved", "tier.extent_moves", "tier.splits",
	"check.seeds_ok", "ckpt.chain_bytes", "ckpt.delta_units",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer returns the traced run's metrics but ops_failed_frac;
// untraced supplies the throughput the tracing overhead is measured
// against.
func perLayer(m, untraced *measurement) map[string]metric {
	rounds := float64(m.rounds)
	out := make(map[string]metric)
	for _, c := range hostSeconds {
		out[callNames[c]+"_s"] = metric{m.tr.selfSeconds(c) / rounds, "s"}
	}
	for _, n := range roundCounts {
		unit := "count"
		if n == "ckpt.chain_bytes" {
			unit = "bytes"
		}
		out[n] = metric{m.counts[n], unit}
	}
	k := m.counts
	out["tlb.hit_ratio"] = metric{ratio(k["tlb.hits"], k["tlb.lookups"]), "ratio"}
	out["rangetable.rtlb_hit_ratio"] = metric{ratio(k["rangetable.rtlb_hits"], k["rangetable.rtlb_lookups"]), "ratio"}
	out["sim.mean_domain_cpus"] = metric{ratio(k["sim.domain_cpus"], k["sim.sync_points"]), "cpus"}
	attempted := k["tier.promotions"] + k["tier.demotions"] + k["tier.stalls"]
	out["tier.stall_ratio"] = metric{ratio(k["tier.stalls"], attempted), "ratio"}
	out["tier.migrate_sim_ms"] = metric{k["tier.migrate_ns"] / 1e6, "ms"}

	var vmCalls, heapCalls int64
	for i := range m.tr.lanes {
		l := &m.tr.lanes[i]
		vmCalls += l.count[cVMMmap] + l.count[cVMMunmap] + l.count[cVMTouch] + l.count[cVMFork] + l.count[cVMDestroy]
		heapCalls += l.count[cHeapAlloc] + l.count[cHeapFree]
	}
	out["vm.calls"] = metric{float64(vmCalls) / rounds, "count"}
	out["heap.calls"] = metric{float64(heapCalls) / rounds, "count"}
	out["vm.tracked_pages_peak"] = metric{m.host["vm.tracked_pages_peak"], "pages"}
	out["sim.barrier_wait_s"] = metric{m.host["sim.barrier_wait_s"], "s"}
	out["runtime.gc_cycles"] = metric{m.host["runtime.gc_cycles"], "count"}
	out["runtime.gc_cpu_frac"] = metric{m.host["runtime.gc_cpu_frac"], "ratio"}
	out["runtime.gc_pause_s"] = metric{m.host["runtime.gc_pause_s"], "s"}
	out["workload.gen_s"] = metric{m.setupTr.selfSeconds(cWorkloadGen), "s"}
	out["sim.invariants_s"] = metric{m.sweepS, "s"}
	out["trace.overhead_frac"] = metric{1 - ratio(m.opsPerS, untraced.opsPerS), "ratio"}
	out["host.raw_ops_per_s"] = metric{untraced.rawOpsPerS, "1/s"}
	out["host.reference_s"] = metric{untraced.refS, "s"}
	return out
}

// committedDigest returns the digest digests.json pins for the
// workload at seed, if any.
func committedDigest(name string, seed uint64) (string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[name][fmt.Sprint(seed)]
	return d, ok, nil
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool
	spans    string // where a traced run writes its spans ("" = nowhere)
}

// benchmark runs one invocation and returns its result and the
// canonical rounds' digest.
func benchmark(o options, log io.Writer) (*result, string, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", o.workload)
	}
	m, err := measure(w, o.seed, o.seconds, o.tiny, false)
	if err != nil {
		return nil, "", err
	}
	res := &result{Attempted: m.attempted, Failed: m.failed}
	digestOK := true
	if !o.tiny {
		want, pinned, err := committedDigest(o.workload, o.seed)
		if err != nil {
			return nil, "", err
		}
		if pinned && want != m.digest {
			fmt.Fprintf(log, "o1perf: %s seed %d: simulated digest %s, digests.json pins %s\n",
				o.workload, o.seed, m.digest, want)
			digestOK = false
		}
	}
	if !o.traced {
		res.Metrics = endToEnd(m)
	} else {
		tm, err := measure(w, o.seed, o.seconds, o.tiny, true)
		if err != nil {
			return nil, "", err
		}
		if tm.digest != m.digest {
			fmt.Fprintf(log, "o1perf: traced digest %s differs from untraced %s: tracing changed the program\n",
				tm.digest, m.digest)
			digestOK = false
		}
		res.Attempted += tm.attempted
		res.Failed += tm.failed
		if tm.err != nil && m.err == nil {
			m.err = tm.err
		}
		res.Metrics = perLayer(tm, m)
		if o.spans != "" {
			if err := tm.tr.write(o.spans); err != nil {
				return nil, "", err
			}
		}
	}
	if !digestOK {
		// A digest covers every op of the canonical rounds.
		res.Failed += m.canonOps
	}
	if m.err != nil {
		fmt.Fprintf(log, "o1perf: %s seed %d: first failure: %v\n", o.workload, o.seed, m.err)
	}
	if k := m.counts["usermode.kernel_transitions"]; k != 0 {
		fmt.Fprintf(log, "o1perf: usermode made %v kernel transitions (must be 0)\n", k)
		res.Failed++
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	if o.traced {
		res.Metrics["ops_failed_frac"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	}
	return res, m.digest, nil
}

// hostShape pins the host shape the benchmark measures on and
// describes it: numbers from differently shaped hosts must never be
// compared.
func hostShape() string {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	return fmt.Sprintf("go=%s nproc=%d gomaxprocs=%d hostpar=off",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("o1perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: map-populate, sparse-read, tenant-churn or check-recover")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured-phase length in host seconds (0 = the canonical rounds only)")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics")
	spans := fs.String("spans", ".bench_build/o1perf-spans.jsonl", "where a traced run writes its kept spans (empty = nowhere)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "o1perf: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "o1perf: --seconds must be >= 0")
		return 2
	}
	shape := hostShape()
	res, dig, err := benchmark(options{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, spans: *spans,
	}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "o1perf:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "o1perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s workload=%s seed=%d digest=%s\n", shape, *name, *seed, dig)
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}
