package snapshot

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Meta identifies what a snapshot captured: the world configuration,
// its machine sizing and seed, the embedded operation trace, and how
// many of its operations had executed at capture time.
type Meta struct {
	// Config names the memory-system configuration (e.g. "baseline",
	// "fom", "pbm", "ranges").
	Config string
	// CPUs is the simulated machine's CPU count.
	CPUs int
	// Seed is the machine (and trace) seed.
	Seed uint64
	// SnapAt is the number of trace operations executed before capture.
	SnapAt int
	// TraceOps is the total operation count of the embedded trace.
	TraceOps int
	// Tier records whether the world ran with a tier migration engine
	// attached; restore-by-reexecution must rebuild the same world.
	Tier bool
}

// Snapshot is one whole-machine checkpoint. Trace is opaque to this
// package — the producer (internal/check) owns the operation codec —
// so the persistence layer stays independent of harness details.
type Snapshot struct {
	Meta    Meta
	Machine *sim.MachineState
	// Trace is the encoded operation trace the machine was executing.
	Trace []byte
	// MemChecksum is mem.(*Memory).ContentChecksum() at capture time.
	MemChecksum uint64
}

// Save writes the snapshot in the versioned binary format, in one
// Write.
func (s *Snapshot) Save(w io.Writer) error {
	_, err := w.Write(s.AppendEncoded(make([]byte, 0, s.EncodedLen())))
	return err
}

// metaLen is the size of the META payload.
func (s *Snapshot) metaLen() int { return 4 + len(s.Meta.Config) + 4 + 3*8 + 1 }

// EncodedLen returns the exact size of the file Save writes, so
// layered formats (internal/ckpt chains) can size a buffer holding it
// before encoding.
func (s *Snapshot) EncodedLen() int {
	return len(magic) + 4 + 4*SectionOverhead +
		s.metaLen() + MachineStateLen(s.Machine) + len(s.Trace) + 8
}

// AppendEncoded appends the file Save writes to b.
func (s *Snapshot) AppendEncoded(b []byte) []byte {
	e := enc{b: append(b, magic...)}
	e.u32(version)
	e.b = AppendSectionFunc(e.b, secMeta, s.metaLen(), func(b []byte) []byte {
		m := enc{b: b}
		m.str(s.Meta.Config)
		m.u32(uint32(s.Meta.CPUs))
		m.u64(s.Meta.Seed)
		m.u64(uint64(s.Meta.SnapAt))
		m.u64(uint64(s.Meta.TraceOps))
		tier := byte(0)
		if s.Meta.Tier {
			tier = 1
		}
		m.u8(tier)
		return m.b
	})
	e.b = AppendSectionFunc(e.b, secMach, MachineStateLen(s.Machine), func(b []byte) []byte {
		return AppendMachineState(b, s.Machine)
	})
	e.b = AppendSection(e.b, secTrace, s.Trace)
	return AppendSectionFunc(e.b, secSums, 8, func(b []byte) []byte {
		c := enc{b: b}
		c.u64(s.MemChecksum)
		return c.b
	})
}

// Load reads a snapshot written by Save, verifying magic, version, and
// every section checksum. It reads r to its end and decodes the bytes
// with Decode.
func Load(r io.Reader) (*Snapshot, error) {
	b, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Decode parses a snapshot Save wrote, verifying magic, version, and
// every section checksum. The returned snapshot's Trace is a sub-slice
// of b, not a copy: b must not be overwritten while it is in use.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+4 {
		return nil, &ErrCorrupt{What: "header"}
	}
	if string(b[:len(magic)]) != magic {
		return nil, &ErrCorrupt{What: "magic (not a snapshot file)"}
	}
	v := uint32(b[len(magic)]) | uint32(b[len(magic)+1])<<8 |
		uint32(b[len(magic)+2])<<16 | uint32(b[len(magic)+3])<<24
	if v != version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", v, version)
	}
	s := &Snapshot{}
	seen := make(map[string]bool)
	for rest := b[len(magic)+4:]; ; {
		tag, payload, next, err := CutSection(rest)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rest = next
		if seen[tag] {
			return nil, &ErrCorrupt{What: "duplicate section " + tag}
		}
		seen[tag] = true
		switch tag {
		case secMeta:
			d := &dec{b: payload}
			s.Meta.Config = d.str()
			s.Meta.CPUs = int(d.u32())
			s.Meta.Seed = d.u64()
			s.Meta.SnapAt = int(d.u64())
			s.Meta.TraceOps = int(d.u64())
			s.Meta.Tier = d.u8() != 0
			if !d.done() {
				return nil, &ErrCorrupt{What: "meta section"}
			}
		case secMach:
			st, err := decodeMachineState(payload)
			if err != nil {
				return nil, err
			}
			s.Machine = st
		case secTrace:
			s.Trace = payload
		case secSums:
			d := &dec{b: payload}
			s.MemChecksum = d.u64()
			if !d.done() {
				return nil, &ErrCorrupt{What: "checksum section"}
			}
		default:
			// Unknown sections from a same-version writer are corruption,
			// not extensibility: version bumps gate layout changes.
			return nil, &ErrCorrupt{What: "unknown section " + tag}
		}
	}
	for _, tag := range []string{secMeta, secMach, secTrace, secSums} {
		if !seen[tag] {
			return nil, &ErrCorrupt{What: "missing section " + tag}
		}
	}
	return s, nil
}

// MachineStateLen returns the size of st in the snapshot wire format.
func MachineStateLen(st *sim.MachineState) int {
	n := 4 + 4
	for _, c := range st.CPUs {
		n += 4 + 8 + 8 + countersLen(c.Counters)
	}
	n += 4
	for _, s := range st.Stats {
		n += 4 + len(s.Name) + countersLen(s.Counters)
	}
	return n
}

// AppendMachineState appends a sim.MachineState capture in the
// snapshot wire format to b, for layered formats (internal/ckpt
// deltas). It appends MachineStateLen(st) bytes.
func AppendMachineState(b []byte, st *sim.MachineState) []byte {
	e := enc{b: b}
	e.u32(uint32(st.Current))
	e.u32(uint32(len(st.CPUs)))
	for _, c := range st.CPUs {
		e.u32(uint32(c.ID))
		e.i64(int64(c.Clock))
		e.u64(c.RNG)
		encodeCounters(&e, c.Counters)
	}
	e.u32(uint32(len(st.Stats)))
	for _, s := range st.Stats {
		e.str(s.Name)
		encodeCounters(&e, s.Counters)
	}
	return e.b
}

// EncodeMachineState returns st in the snapshot wire format.
func EncodeMachineState(st *sim.MachineState) []byte {
	return AppendMachineState(make([]byte, 0, MachineStateLen(st)), st)
}

// DecodeMachineState parses an AppendMachineState encoding.
func DecodeMachineState(b []byte) (*sim.MachineState, error) {
	return decodeMachineState(b)
}

func countersLen(cs []sim.CounterValue) int {
	n := 4
	for _, c := range cs {
		n += 4 + len(c.Name) + 8
	}
	return n
}

func encodeCounters(e *enc, cs []sim.CounterValue) {
	e.u32(uint32(len(cs)))
	for _, c := range cs {
		e.str(c.Name)
		e.u64(c.Value)
	}
}

// decodeMachineState parses an AppendMachineState encoding.
func decodeMachineState(b []byte) (*sim.MachineState, error) {
	d := &dec{b: b}
	st := &sim.MachineState{Current: int(d.u32())}
	ncpu := d.u32()
	for i := uint32(0); i < ncpu && d.err == nil; i++ {
		c := sim.CPUState{
			ID:    int(d.u32()),
			Clock: sim.Time(d.i64()),
			RNG:   d.u64(),
		}
		c.Counters = decodeCounters(d)
		st.CPUs = append(st.CPUs, c)
	}
	nsets := d.u32()
	for i := uint32(0); i < nsets && d.err == nil; i++ {
		s := sim.StatsState{Name: d.str()}
		s.Counters = decodeCounters(d)
		st.Stats = append(st.Stats, s)
	}
	if !d.done() {
		if d.err != nil {
			return nil, d.err
		}
		return nil, &ErrCorrupt{What: "machine section has trailing bytes"}
	}
	return st, nil
}

func decodeCounters(d *dec) []sim.CounterValue {
	n := d.u32()
	var out []sim.CounterValue
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, sim.CounterValue{Name: d.str(), Value: d.u64()})
	}
	return out
}
