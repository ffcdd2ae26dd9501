// Package check implements the kernel invariant checker's driver: a
// seeded, randomized differential stress harness that runs the same
// operation sequence against every memory-system configuration the
// repository implements — the baseline VM (package vm), file-only
// memory accessed through read/write (fom), file-only memory mapped
// with PBM translations in both SharedPT and Ranges modes (package
// core), and user-mode grants under a heap (package usermode) — and
// demands that all observable outcomes agree.
//
// The harness is deterministic: a seed fully determines the operation
// trace, so any failure is replayable with `o1check -seed N`. On
// failure the trace is greedily shrunk to a minimal reproducer.
//
// Invariant checking itself lives with each subsystem (vm.Kernel,
// core.System, memfs.FS register with their sim.Machine); the harness
// calls Machine.CheckInvariants at a configurable interval and at the
// end of every run.
package check

import "fmt"

// OpKind enumerates the operations the stress harness generates.
type OpKind uint8

const (
	// OpMap creates a new memory object (anonymous-private or
	// shareable) and maps it into the acting process.
	OpMap OpKind = iota
	// OpUnmap removes the acting process's mapping of an object. The
	// object dies when its last mapping goes.
	OpUnmap
	// OpWrite stores Val at byte 0 of page Page of an object.
	OpWrite
	// OpRead loads byte 0 of page Page of an object; the value is
	// compared across configurations and against the model.
	OpRead
	// OpFork clones the acting process into Child: private objects are
	// copied (COW in the baseline), shared objects stay shared.
	OpFork
	// OpShare maps an existing shareable object into another process.
	OpShare
	// OpReclaim asks the baseline kernel to reclaim pages (swap-out
	// pressure). Configurations without page reclaim treat it as a
	// no-op; outcomes are unaffected by design, which the differential
	// comparison verifies.
	OpReclaim
	// OpMigrate moves the acting process to another CPU, so later
	// operations execute (and miss/fill TLBs) there.
	OpMigrate
	// OpFSCreate creates a named file in the configuration's file
	// system.
	OpFSCreate
	// OpFSWrite writes Val at byte 0 of page Page of a named file,
	// extending it as needed.
	OpFSWrite
	// OpFSDelete unlinks a named file.
	OpFSDelete

	numOpKinds
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpMap:
		return "map"
	case OpUnmap:
		return "unmap"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpFork:
		return "fork"
	case OpShare:
		return "share"
	case OpReclaim:
		return "reclaim"
	case OpMigrate:
		return "migrate"
	case OpFSCreate:
		return "fs-create"
	case OpFSWrite:
		return "fs-write"
	case OpFSDelete:
		return "fs-delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one generated operation. Fields are used according to Kind;
// unused fields are zero. Object and process IDs are assigned by the
// generator and never reused, so a trace with operations removed (by
// the shrinker) still refers to unambiguous entities — removed
// operations simply make later references invalid, and invalid
// operations are skipped identically by the model and every world.
type Op struct {
	Kind   OpKind
	Proc   int    // acting process
	Obj    int    // object ID (map/unmap/write/read/share)
	Child  int    // fork: pre-assigned child process ID
	Pages  uint64 // map: object length in pages
	Page   uint64 // write/read/fs-write: page index
	Val    byte   // write/fs-write: value (always non-zero)
	CPU    int    // migrate: destination CPU
	Shared bool   // map: object is shareable
	Path   string // fs ops: file name
}

// String renders the operation compactly for failure reports.
func (o Op) String() string {
	switch o.Kind {
	case OpMap:
		kind := "private"
		if o.Shared {
			kind = "shared"
		}
		return fmt.Sprintf("proc %d: map obj %d (%d pages, %s)", o.Proc, o.Obj, o.Pages, kind)
	case OpUnmap:
		return fmt.Sprintf("proc %d: unmap obj %d", o.Proc, o.Obj)
	case OpWrite:
		return fmt.Sprintf("proc %d: write obj %d page %d <- %#02x", o.Proc, o.Obj, o.Page, o.Val)
	case OpRead:
		return fmt.Sprintf("proc %d: read obj %d page %d", o.Proc, o.Obj, o.Page)
	case OpFork:
		return fmt.Sprintf("proc %d: fork -> proc %d", o.Proc, o.Child)
	case OpShare:
		return fmt.Sprintf("proc %d: share obj %d", o.Proc, o.Obj)
	case OpReclaim:
		return "reclaim"
	case OpMigrate:
		return fmt.Sprintf("proc %d: migrate to CPU %d", o.Proc, o.CPU)
	case OpFSCreate:
		return fmt.Sprintf("proc %d: fs create %q", o.Proc, o.Path)
	case OpFSWrite:
		return fmt.Sprintf("proc %d: fs write %q page %d <- %#02x", o.Proc, o.Path, o.Page, o.Val)
	case OpFSDelete:
		return fmt.Sprintf("proc %d: fs delete %q", o.Proc, o.Path)
	default:
		return o.Kind.String()
	}
}
