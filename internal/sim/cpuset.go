package sim

import (
	"fmt"
	"math/bits"
	"strings"
)

// CPUSet is a set of CPU ids, 0..63, as a bitmask. The parallel-phase
// scheduler uses it for sync domains (the CPUs a sync point can
// observe or mutate) and sync groups (the partition of CPUs that are
// allowed to interact at all), which is why a machine has at most
// MaxCPUs CPUs.
type CPUSet uint64

// MaxCPUs is the largest machine NewMachine builds: every CPU id must
// fit in a CPUSet.
const MaxCPUs = 64

// Add inserts CPU id into the set.
func (s *CPUSet) Add(id int) {
	if id < 0 || id >= MaxCPUs {
		panic(fmt.Sprintf("sim: CPU id %d outside CPUSet range [0,%d)", id, MaxCPUs))
	}
	*s |= 1 << uint(id)
}

// Has reports whether CPU id is in the set.
func (s CPUSet) Has(id int) bool {
	if id < 0 || id >= MaxCPUs {
		return false
	}
	return s&(1<<uint(id)) != 0
}

// Count returns the number of CPUs in the set.
func (s CPUSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Intersects reports whether the two sets share any CPU.
func (s CPUSet) Intersects(o CPUSet) bool { return s&o != 0 }

// SubsetOf reports whether every CPU in s is also in o.
func (s CPUSet) SubsetOf(o CPUSet) bool { return s&^o == 0 }

// String formats the set as {0,1,5} for error messages and tests.
func (s CPUSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for id := 0; id < MaxCPUs; id++ {
		if !s.Has(id) {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// fullCPUSet returns the set of all n CPUs, n <= MaxCPUs (at n = 64
// the shift yields 0, and 0 - 1 is the full mask).
func fullCPUSet(n int) CPUSet {
	return CPUSet(1)<<uint(n) - 1
}
