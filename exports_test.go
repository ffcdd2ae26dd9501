package o1mem

// exports_test.go keeps the internal API to what its consumers call:
// every exported function and method under internal/ must be used by
// some non-test code of this module or of the o1perf benchmark module,
// or be one of the few exports listed in keptExports with the reason
// it stays.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exports that no non-test code calls and that
// stay anyway, each with its reason: another test reads it to check
// some other behaviour, it is one of the paper's file-granular
// operations, or an Example reads it. Interface implementations and
// CheckInvariants methods are exempt without an entry.
var keptExports = map[string]string{
	// Read by tests to check some other behaviour.
	"buddy.Allocator.FreeBlocksByOrder": "the buddy oracle test compares free lists with the reference allocator",
	"buddy.Allocator.VisitAllocated":    "the buddy oracle and per-frame checks compare allocated blocks",
	"heap.Heap.Regions":                 "the usermode heap test proves every heap region lies inside a grant",
	"mem.Memory.MaterializedFrames":     "the frame-store oracle and recycling tests count backing arrays",
	"pagetable.Table.MappedPages":       "the vm tests count present PTEs after demand faults, munmap and MADV_DONTNEED; the vm Example prints it",
	"pagetable.Table.Nodes":             "the page-table tests prove unmap and destroy free every node",
	"rangetable.RTLB.ValidEntries":      "the range-TLB eviction tests count cached entries; ExampleRTLB prints it",
	"sim.Machine.EnableGrantLog":        "the sharded sync-gate test records grant order",
	"sim.Machine.GrantLog":              "the sharded sync-gate test checks grant order",
	"sim.Machine.EnableIPILog":          "the IPI tests record deliveries",
	"sim.Machine.IPILog":                "the IPI tests check Lamport-ordered delivery",
	"snapshot.EncodeMachineState":       "TestWorldStatesPinned hashes every world's machine state",
	"tlb.TLB.Peek":                      "the vm SMP tests probe which CPUs' TLBs hold a translation",
	"tlb.TLB.ValidEntries":              "the TLB flush and recycling tests count valid entries",
	"vm.Kernel.ReleaseArenas":           "the vm host-parallel tests prove each phase returned every arena frame",

	// The paper's file-granular operations (§3): permissions, pinning,
	// durability and recovery.
	"core.Process.Protect":            "file-granular permission change",
	"core.System.Remount":             "crash recovery of file-only memory; ExampleSystem_Remount runs it",
	"memfs.File.SetDurability":        "a file marked volatile or persistent at any time",
	"usermode.Process.Pin":            "pinning a grant against reclaim and migration",
	"usermode.Process.Unpin":          "unpinning a grant",
	"vm.AddressSpace.Mprotect":        "the baseline's per-page permission change",
	"vm.AddressSpace.MadviseDontneed": "the baseline's per-page discard",

	// Read by an Example.
	"core.Mapping.Contiguous": "the core Example prints it",
	"heap.Heap.Read":          "the heap Example reads an object back",
	"heap.Heap.Stats":         "the heap Example prints arena counts; the heap tests check arena release with it",
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// listPackages runs `go list -deps -json ./...` in dir and returns the
// module's own packages, dependencies first.
func listPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// repoImporter resolves this module's packages to the ones the scan
// has already checked, so every package sees the same type objects,
// and the standard library from source.
type repoImporter struct {
	std     types.ImporterFrom
	checked map[string]*types.Package
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, "", 0)
}

func (r *repoImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := r.checked[path]; ok {
		return p, nil
	}
	return r.std.ImportFrom(path, dir, mode)
}

// exportName names a function "pkg.Func" and a method "pkg.Type.Method".
func exportName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// implementsSome reports whether the receiver of method fn, as a value
// or a pointer, implements an interface that has a method of fn's name.
func implementsSome(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// collectInterfaces indexes, by method name, every package-level
// interface of pkg and of the packages it imports.
func collectInterfaces(pkg *types.Package, seen map[*types.Package]bool, ifaces map[string][]*types.Interface) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			ifaces[m] = append(ifaces[m], iface)
		}
	}
	for _, imp := range pkg.Imports() {
		collectInterfaces(imp, seen, ifaces)
	}
}

func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source; skipped under -short")
	}
	fset := token.NewFileSet()
	imp := &repoImporter{
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		checked: map[string]*types.Package{},
	}
	// exports maps each exported function under internal/ to its
	// declaration, whose own uses (recursion) do not count.
	exports := map[*types.Func]*ast.FuncDecl{}
	var uses []map[*ast.Ident]types.Object
	for _, dir := range []string{".", "o1perf"} {
		for _, lp := range listPackages(t, dir) {
			if imp.checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs: map[*ast.Ident]types.Object{},
				Uses: map[*ast.Ident]types.Object{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", lp.ImportPath, err)
			}
			imp.checked[lp.ImportPath] = pkg
			uses = append(uses, info.Uses)
			if !strings.HasPrefix(lp.ImportPath, "repro/internal/") {
				continue
			}
			for _, f := range files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					exports[info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}

	ifaces := map[string][]*types.Interface{
		"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range imp.checked {
		collectInterfaces(pkg, seen, ifaces)
	}
	used := map[*types.Func]bool{}
	for _, u := range uses {
		for id, obj := range u {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := exports[fn]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
				continue
			}
			used[fn] = true
		}
	}

	var uncalled, stale []string
	listed := map[string]bool{}
	for fn, fd := range exports {
		name := exportName(fn)
		isMethod := fd.Recv != nil
		switch {
		case isMethod && fn.Name() == "CheckInvariants":
		case isMethod && implementsSome(fn, ifaces):
		case keptExports[name] != "":
			listed[name] = true
			if used[fn] {
				stale = append(stale, name+" (now has a caller)")
			}
		case !used[fn]:
			uncalled = append(uncalled, fmt.Sprintf("%s (%s)", name, fset.Position(fd.Pos())))
		}
	}
	for name := range keptExports {
		if !listed[name] {
			stale = append(stale, name+" (no such export, or exempt without an entry)")
		}
	}
	sort.Strings(uncalled)
	sort.Strings(stale)
	for _, s := range uncalled {
		t.Errorf("exported but never called outside tests: %s; delete it, or list it in keptExports with its reason", s)
	}
	for _, s := range stale {
		t.Errorf("keptExports entry %s; remove the entry", s)
	}
}
