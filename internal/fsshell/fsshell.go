// Package fsshell implements the command interpreter behind cmd/o1fs:
// a small scriptable shell over the simulated memory file systems,
// with crash/remount, quotas and pressure-discard built in. It is a
// separate package so the command set is unit-testable.
package fsshell

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
)

// New builds a shell over a fresh machine with one file system of the
// given policy and size; output goes to out.
func New(policy memfs.AllocPolicy, frames uint64, out io.Writer) (*Shell, error) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 4096, NVMFrames: frames})
	if err != nil {
		return nil, err
	}
	nvm, _ := memory.Region(mem.NVM)
	fs, err := memfs.New("o1fs", policy, clock, &params, memory, nvm.Start, nvm.Count)
	if err != nil {
		return nil, err
	}
	return &Shell{clock: clock, memory: memory, fs: fs, out: out,
		handles: make(map[string]*memfs.File)}, nil
}

// Shell interprets o1fs commands against one simulated machine.
type Shell struct {
	clock  *sim.Clock
	memory *mem.Memory
	fs     *memfs.FS
	out    io.Writer

	// handles maps hN tokens from `open` to live file handles, each
	// carrying its own position for seek/read/write. Remount
	// invalidates them all (their inode references die with the old
	// metadata generation).
	handles map[string]*memfs.File
	nextH   int
}

// handle resolves an hN token; ok is false if tok is not handle-shaped
// (callers then treat it as a path).
func (sh *Shell) handle(tok string) (*memfs.File, bool, error) {
	if len(tok) < 2 || tok[0] != 'h' {
		return nil, false, nil
	}
	if _, err := strconv.Atoi(tok[1:]); err != nil {
		return nil, false, nil
	}
	f, ok := sh.handles[tok]
	if !ok {
		return nil, true, fmt.Errorf("no open handle %q", tok)
	}
	return f, true, nil
}

// closeHandles force-drops every open handle (remount).
func (sh *Shell) closeHandles() int {
	n := 0
	for tok, f := range sh.handles {
		f.Close()
		delete(sh.handles, tok)
		n++
	}
	return n
}

func (sh *Shell) ExecLine(line string) {
	if line == "" || strings.HasPrefix(line, "#") {
		return
	}
	fields := strings.Fields(line)
	if err := sh.exec(fields[0], fields[1:]); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
	}
}

// readLen parses a read length. It must fit in the file system, so a
// bad argument is an error rather than a host allocation of any size.
func (sh *Shell) readLen(arg string) (int, error) {
	n, err := strconv.Atoi(arg)
	if err != nil {
		return 0, err
	}
	if limit := sh.fs.TotalFrames() * mem.FrameSize; n < 0 || uint64(n) > limit {
		return 0, fmt.Errorf("read length %d outside [0, %d]", n, limit)
	}
	return n, nil
}

func (sh *Shell) exec(cmd string, args []string) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s needs %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return sh.fs.Mkdir(args[0])
	case "create":
		if err := need(1); err != nil {
			return err
		}
		opts := memfs.CreateOptions{}
		for _, a := range args[1:] {
			switch a {
			case "persistent":
				opts.Durability = memfs.Persistent
			case "volatile":
				opts.Durability = memfs.Volatile
			case "discardable":
				opts.Discardable = true
			default:
				return fmt.Errorf("unknown create option %q", a)
			}
		}
		f, err := sh.fs.Create(args[0], opts)
		if err != nil {
			return err
		}
		return f.Close()
	case "open":
		if err := need(1); err != nil {
			return err
		}
		var flags memfs.OpenFlag
		opts := memfs.CreateOptions{}
		for _, a := range args[1:] {
			switch a {
			case "create":
				flags |= memfs.OCreate
			case "excl":
				flags |= memfs.OExcl
			case "trunc":
				flags |= memfs.OTrunc
			case "append":
				flags |= memfs.OAppend
			case "persistent":
				opts.Durability = memfs.Persistent
			case "volatile":
				opts.Durability = memfs.Volatile
			case "discardable":
				opts.Discardable = true
			default:
				return fmt.Errorf("unknown open option %q", a)
			}
		}
		f, err := sh.fs.OpenFile(args[0], flags, opts)
		if err != nil {
			return err
		}
		tok := fmt.Sprintf("h%d", sh.nextH)
		sh.nextH++
		sh.handles[tok] = f
		fmt.Fprintf(sh.out, "%s = %s\n", tok, args[0])
		return nil
	case "close":
		if err := need(1); err != nil {
			return err
		}
		f, isH, err := sh.handle(args[0])
		if err != nil {
			return err
		}
		if !isH {
			return fmt.Errorf("close takes a handle (h0, h1, ...), got %q", args[0])
		}
		delete(sh.handles, args[0])
		return f.Close()
	case "seek":
		if err := need(2); err != nil {
			return err
		}
		f, isH, err := sh.handle(args[0])
		if err != nil {
			return err
		}
		if !isH {
			return fmt.Errorf("seek takes a handle (h0, h1, ...), got %q", args[0])
		}
		off, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		whence := io.SeekStart
		if len(args) > 2 {
			switch args[2] {
			case "set":
				whence = io.SeekStart
			case "cur":
				whence = io.SeekCurrent
			case "end":
				whence = io.SeekEnd
			default:
				return fmt.Errorf("seek whence must be set, cur or end, got %q", args[2])
			}
		}
		pos, err := f.Seek(off, whence)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "pos %d\n", pos)
		return nil
	case "handles":
		toks := make([]string, 0, len(sh.handles))
		for tok := range sh.handles {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		for _, tok := range toks {
			f := sh.handles[tok]
			fmt.Fprintf(sh.out, "%s ino=%d pos=%d size=%d\n", tok, f.Inode().Ino(), f.Pos(), f.Inode().Size())
		}
		return nil
	case "write", "append":
		if err := need(2); err != nil {
			return err
		}
		text := strings.Join(args[1:], " ")
		if f, isH, err := sh.handle(args[0]); isH {
			// Handle form: write at the handle position (or at EOF for
			// an append-mode handle), advancing it.
			if err != nil {
				return err
			}
			if cmd == "append" {
				if _, err := f.Seek(0, io.SeekEnd); err != nil {
					return err
				}
			}
			n, err := f.Write([]byte(text))
			if err != nil {
				return err
			}
			fmt.Fprintf(sh.out, "wrote %d bytes, pos %d\n", n, f.Pos())
			return nil
		}
		f, err := sh.fs.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		off := uint64(0)
		if cmd == "append" {
			off = f.Inode().Size()
		}
		n, err := f.WriteAt([]byte(text), off)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "wrote %d bytes at %d\n", n, off)
		return nil
	case "read":
		if err := need(2); err != nil {
			return err
		}
		n, err := sh.readLen(args[1])
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if f, isH, err := sh.handle(args[0]); isH {
			// Handle form: sequential read from the handle position.
			if err != nil {
				return err
			}
			got, err := f.Read(buf)
			if err == io.EOF {
				fmt.Fprintf(sh.out, "%q (eof)\n", buf[:got])
				return nil
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(sh.out, "%q\n", buf[:got])
			return nil
		}
		f, err := sh.fs.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := f.ReadAt(buf, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%q\n", buf[:got])
		return nil
	case "read-at":
		if err := need(3); err != nil {
			return err
		}
		off, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		n, err := sh.readLen(args[2])
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if f, isH, herr := sh.handle(args[0]); isH {
			if herr != nil {
				return herr
			}
			got, err := f.ReadAt(buf, off)
			if err != nil {
				return err
			}
			fmt.Fprintf(sh.out, "%q\n", buf[:got])
			return nil
		}
		f, err := sh.fs.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := f.ReadAt(buf, off)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%q\n", buf[:got])
		return nil
	case "walk":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		return sh.fs.WalkDir(path, func(p string, ino *memfs.Inode) error {
			kind := "f"
			if ino.IsDir() {
				kind = "d"
			}
			fmt.Fprintf(sh.out, "%s %10d  %s\n", kind, ino.Size(), p)
			return nil
		})
	case "truncate":
		if err := need(2); err != nil {
			return err
		}
		pages, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		if f, isH, herr := sh.handle(args[0]); isH {
			if herr != nil {
				return herr
			}
			return f.Truncate(pages * mem.FrameSize)
		}
		f, err := sh.fs.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Truncate(pages * mem.FrameSize)
	case "ls":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		names, err := sh.fs.ReadDir(path)
		if err != nil {
			return err
		}
		for _, name := range names {
			ino, err := sh.fs.Stat(path + "/" + name)
			if err != nil {
				ino, err = sh.fs.Stat(strings.TrimSuffix(path, "/") + "/" + name)
				if err != nil {
					continue
				}
			}
			kind := "f"
			if ino.IsDir() {
				kind = "d"
			}
			fmt.Fprintf(sh.out, "%s %10d  %s (%s)\n", kind, ino.Size(), name, ino.Durability())
		}
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		ino, err := sh.fs.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "ino=%d dir=%v size=%d pages=%d allocated=%d extents=%d mode=%v %s discardable=%v\n",
			ino.Ino(), ino.IsDir(), ino.Size(), ino.Pages(), ino.AllocatedPages(),
			len(ino.Extents()), ino.Mode(), ino.Durability(), ino.Discardable())
		return nil
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return sh.fs.Unlink(args[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return sh.fs.Rename(args[0], args[1])
	case "ln":
		if err := need(2); err != nil {
			return err
		}
		return sh.fs.Link(args[0], args[1])
	case "quota":
		if err := need(2); err != nil {
			return err
		}
		frames, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		return sh.fs.SetQuota(args[0], frames)
	case "usage":
		if err := need(1); err != nil {
			return err
		}
		used, quota, err := sh.fs.QuotaUsage(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%d/%d frames\n", used, quota)
		return nil
	case "discard":
		if err := need(1); err != nil {
			return err
		}
		want, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return err
		}
		freed, err := sh.fs.DiscardForPressure(want)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "discarded %d frames\n", freed)
		return nil
	case "crash":
		sh.memory.Crash()
		fmt.Fprintln(sh.out, "power failure")
		return nil
	case "remount":
		// Remount rebuilds metadata from scratch: every open handle
		// references the pre-crash generation and must die with it.
		if n := sh.closeHandles(); n > 0 {
			fmt.Fprintf(sh.out, "%d stale handle(s) invalidated\n", n)
		}
		dropped, err := sh.fs.Remount()
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "remounted, %d volatile file(s) dropped\n", dropped)
		return nil
	case "check":
		if err := sh.fs.CheckInvariants(); err != nil {
			return err
		}
		fmt.Fprintln(sh.out, "fsck: clean")
		return nil
	case "df":
		fmt.Fprintf(sh.out, "%d free / %d total frames\n", sh.fs.FreeFrames(), sh.fs.TotalFrames())
		return nil
	case "time":
		fmt.Fprintf(sh.out, "virtual time: %v\n", sh.clock.Now())
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
