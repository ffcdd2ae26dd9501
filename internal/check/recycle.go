package check

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/vm"
)

// parts is the host storage one finished world hands to the next world
// the same check call builds: its frame arrays and frame-store nodes,
// its page-table node structs, TLB arrays and swap buffers, and the
// chain save buffer. It is the only way parts travel: no package
// state, no sync.Pool. Each layer scrubs what it releases and adopts
// only what it can use, so a world built on parts captures exactly as
// a fresh one does (TestRecycledWorldsMatchFresh).
//
// Ownership: only the call that built a world releases it, and only
// after the world's last capture; the released world is unusable from
// then on. A release replaces whatever the previous world left
// unadopted, so parts never hold more than one world's storage, and
// they die with the call.
type parts struct {
	mem  mem.Spares
	vm   vm.Spares
	core core.Spares
	save []byte // the chain save buffer; see chainRecoverOne
}

// release hands w's host storage to p and leaves w unusable.
func (w *world) release(p *parts) error {
	*p = parts{save: p.save}
	if err := w.b.release(p); err != nil {
		return err
	}
	w.mem.Release(&p.mem)
	return nil
}

func (b *vmBackend) release(p *parts) error { return b.k.Release(&p.vm) }

func (b *coreBackend) release(p *parts) error { return b.sys.Release(&p.core) }

// The file stores keep no recyclable storage outside physical memory.
func (b *fomBackend) release(*parts) error { return nil }

func (b *usermodeBackend) release(*parts) error { return nil }
