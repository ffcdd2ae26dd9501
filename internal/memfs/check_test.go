package memfs

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// sizedFile creates path with pages preallocated and returns its inode.
func sizedFile(t *testing.T, fs *FS, path string, pages uint64) *Inode {
	t.Helper()
	f, err := fs.Create(path, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(pages * mem.FrameSize); err != nil {
		t.Fatal(err)
	}
	return f.Inode()
}

func wantCheckError(t *testing.T, fs *FS, want string) {
	t.Helper()
	err := fs.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want an error mentioning %q", err, want)
	}
}

func TestCheckInvariantsRejectsCrossInodeOverlap(t *testing.T) {
	fs, _, _ := newFS(t, Extent)
	a := sizedFile(t, fs, "/a", 8)
	b := sizedFile(t, fs, "/b", 8)
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// b's extent now starts in the middle of a's.
	b.extents[0].Start = a.extents[0].Start + 4
	wantCheckError(t, fs, "owned by inodes")
}

func TestCheckInvariantsRejectsSameInodeOverlap(t *testing.T) {
	fs, _, _ := newFS(t, PerPage)
	f, err := fs.Create("/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(8 * mem.FrameSize); err != nil {
		t.Fatal(err)
	}
	for _, page := range []uint64{0, 5} {
		if _, _, err := f.PageFrame(page, true); err != nil {
			t.Fatal(err)
		}
	}
	ino := f.Inode()
	if len(ino.extents) != 2 {
		t.Fatalf("%d extents, want 2", len(ino.extents))
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Two pages of one file backed by the same frame.
	ino.extents[1].Start = ino.extents[0].Start
	wantCheckError(t, fs, "owned by inodes")
}

func TestCheckInvariantsRejectsExtentOutsideRegion(t *testing.T) {
	fs, m, _ := newFS(t, Extent)
	ino := sizedFile(t, fs, "/f", 8)
	dram, _ := m.Region(mem.DRAM)
	ino.extents[0].Start = dram.Start
	wantCheckError(t, fs, "outside the block region")

	// An extent hanging off the end of the region is outside it too.
	nvm, _ := m.Region(mem.NVM)
	ino.extents[0].Start = nvm.Start + mem.Frame(nvm.Count) - 4
	wantCheckError(t, fs, "outside the block region")
}

func TestCheckInvariantsTieredRegions(t *testing.T) {
	fs, _, _, _ := newTieredFS(t, tier.Promote, 64, 128)
	ino := sizedFile(t, fs, "/f", 8)
	if fs.budFor(ino.extents[0].Start) != fs.fastBud {
		t.Fatal("file not placed in the fast region")
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatalf("fast-region extent rejected: %v", err)
	}
	// DRAM past the fast region belongs to neither block region.
	ino.extents[0].Start = fs.fastBud.Base() + mem.Frame(fs.fastBud.Size())
	wantCheckError(t, fs, "outside the block region")
}
