package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// callID names one benchmark call into a layer's public API (or one
// benchmark phase that wraps such calls). Spans are recorded per callID.
type callID uint8

const (
	cVMMmap callID = iota
	cVMMunmap
	cVMTouch
	cVMFork
	cVMDestroy
	cMemfsCreate
	cMemfsWrite
	cMemfsRead
	cMemfsRemove
	cMemfsOpen
	cCoreSpawn
	cCoreAlloc
	cCoreMapFile
	cCoreTouch
	cCoreUnmap
	cCoreExit
	cUMSpawn
	cUMAlloc
	cUMFree
	cUMAccess
	cUMMapShared
	cUMExit
	cHeapAlloc
	cHeapFree
	cSimRunParallel
	cCheckReplay
	cCheckRecover
	cCkptBuild
	cCkptSave
	cCkptLoad
	cCkptVerify
	cWorkloadGen
	numCalls
)

// callNames maps each callID to "<layer>.<call>"; per-layer host-time
// metrics are these names with an "_s" suffix.
var callNames = [numCalls]string{
	cVMMmap:         "vm.mmap",
	cVMMunmap:       "vm.munmap",
	cVMTouch:        "vm.touch",
	cVMFork:         "vm.fork",
	cVMDestroy:      "vm.destroy",
	cMemfsCreate:    "memfs.create",
	cMemfsWrite:     "memfs.write",
	cMemfsRead:      "memfs.read",
	cMemfsRemove:    "memfs.remove",
	cMemfsOpen:      "memfs.open",
	cCoreSpawn:      "core.spawn",
	cCoreAlloc:      "core.alloc",
	cCoreMapFile:    "core.mapfile",
	cCoreTouch:      "core.touch",
	cCoreUnmap:      "core.unmap",
	cCoreExit:       "core.exit",
	cUMSpawn:        "usermode.spawn",
	cUMAlloc:        "usermode.alloc",
	cUMFree:         "usermode.free",
	cUMAccess:       "usermode.access",
	cUMMapShared:    "usermode.mapshared",
	cUMExit:         "usermode.exit",
	cHeapAlloc:      "heap.alloc",
	cHeapFree:       "heap.free",
	cSimRunParallel: "sim.run_parallel",
	cCheckReplay:    "check.replay",
	cCheckRecover:   "check.recover",
	cCkptBuild:      "ckpt.build",
	cCkptSave:       "ckpt.save",
	cCkptLoad:       "ckpt.load",
	cCkptVerify:     "ckpt.verify",
	cWorkloadGen:    "workload.gen",
}

// maxLanes bounds the lanes a tracer serves: lane 0 is the benchmark loop,
// lane 1+c is simulated CPU c inside a RunParallel phase.
const maxLanes = 1 + 8

// keptSpans bounds the spans written verbatim per lane; every span
// still feeds the aggregates. A traced run issues millions of calls,
// and keeping them all would dominate the host heap being measured.
const keptSpans = 20000

// tracer records spans around benchmark calls. Each lane is touched only
// by the goroutine executing that lane (RunParallel gives every
// simulated CPU its own goroutine), so lanes need no locking; the
// benchmark merges them after the phase returns. A nil *tracer records
// nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	lanes [maxLanes]lane
}

// lane is one goroutine's span stack and aggregates.
type lane struct {
	open  []openSpan
	seq   int64
	self  [numCalls]int64
	count [numCalls]int64
	kept  []spanRecord
}

type openSpan struct {
	call  callID
	id    int64
	start int64
	child int64 // ns covered by timed children
}

// spanRecord is one written span. Parent is the id of the enclosing
// span on the same lane, or -1 when the span's parent is the benchmark
// phase that was open on lane 0.
type spanRecord struct {
	Lane   int    `json:"lane"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"call"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span for call c on lane ln.
func (t *tracer) begin(ln int, c callID) {
	if t == nil {
		return
	}
	l := &t.lanes[ln]
	l.seq++
	l.open = append(l.open, openSpan{call: c, id: l.seq, start: t.now()})
}

// end closes the innermost open span on lane ln.
func (t *tracer) end(ln int) {
	if t == nil {
		return
	}
	now := t.now()
	l := &t.lanes[ln]
	o := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	dur := now - o.start
	l.self[o.call] += dur - o.child
	l.count[o.call]++
	parent := int64(-1)
	if n := len(l.open); n > 0 {
		l.open[n-1].child += dur
		parent = l.open[n-1].id
	}
	if len(l.kept) < keptSpans {
		l.kept = append(l.kept, spanRecord{Lane: ln, ID: o.id, Parent: parent,
			Layer: callNames[o.call], Start: o.start, End: now})
	}
}

// selfSeconds returns the summed self time of call c over every lane.
func (t *tracer) selfSeconds(c callID) float64 {
	var ns int64
	for i := range t.lanes {
		ns += t.lanes[i].self[c]
	}
	return float64(ns) / 1e9
}

// write stores the kept spans as JSON lines at path, creating its
// directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.lanes {
		for _, s := range t.lanes[i].kept {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
