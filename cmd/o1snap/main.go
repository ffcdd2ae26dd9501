// Command o1snap drives the persistence subsystem from the shell:
// checkpoint a simulated machine mid-trace as a chain (a base snapshot
// plus zero or more dirty-extent deltas), restore a chain and prove the
// rebuilt machine bit-identical, compact a chain's journal, inject a
// crash (optionally tearing the metadata journal mid-record) and
// verify recovery, or inspect a chain file.
//
// Usage:
//
//	o1snap save -config ranges -seed 1 -ops 2000 -deltas 0 -o m.ckpt
//	o1snap save -config fom -seed 1 -ops 2000 -deltas 3 -o m.ckpt
//	o1snap restore -i m.ckpt
//	o1snap compact -i m.ckpt
//	o1snap crash -config all -seed 1 -ops 2000 -snap-at 500 -at 1500 -torn
//	o1snap info -i m.ckpt
//
// Every subcommand exits non-zero on failure; restore and crash run a
// full invariant sweep and bit-identity proof, including the assembled
// differential image, so a zero exit means the persistence contract
// held.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/ckpt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = cmdSave(os.Args[2:])
	case "restore":
		err = cmdRestore(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "crash":
		err = cmdCrash(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "o1snap %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: o1snap <save|restore|compact|crash|info> [flags]")
	os.Exit(2)
}

// traceFlags declares the flags shared by every subcommand that builds
// a machine from a seeded trace.
func traceFlags(fs *flag.FlagSet) (seed *uint64, ops, cpus *int, config *string) {
	seed = fs.Uint64("seed", 1, "random seed (determines the whole trace)")
	ops = fs.Int("ops", 2000, "trace length")
	cpus = fs.Int("cpus", 2, "CPUs per simulated machine")
	config = fs.String("config", "ranges", "configuration (baseline,fom,pbm,ranges,usermode), or comma list / 'all' where supported")
	return
}

func configList(spec string) []string {
	if spec == "all" || spec == "" {
		return check.AllConfigs
	}
	return strings.Split(spec, ",")
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	seed, ops, cpus, config := traceFlags(fs)
	at := fs.Int("at", -1, "base checkpoint after this many ops (default ops/3)")
	deltas := fs.Int("deltas", 2, "number of delta checkpoints between base and end of trace (0 = base only)")
	out := fs.String("o", "machine.ckpt", "output file")
	_ = fs.Parse(args)
	if *at < 0 {
		*at = *ops / 3
	}
	deltaAts := spacedDeltas(*at, *ops, *deltas)
	chain, err := check.BuildChain(*config, check.Options{Seed: *seed, Ops: *ops, CPUs: *cpus}, *at, deltaAts)
	if err != nil {
		return err
	}
	if err := writeFile(*out, func(f *os.File) error { return chain.Save(f) }); err != nil {
		return err
	}
	st, _ := os.Stat(*out)
	fmt.Printf("saved %s: config=%s seed=%d base@%d deltas@%v of %d ops, %d journal records, %d bytes\n",
		*out, chain.Base.Meta.Config, chain.Base.Meta.Seed, *at, deltaAts, *ops, chain.Journal.Len(), st.Size())
	return nil
}

// spacedDeltas places n delta points evenly in (base, end).
func spacedDeltas(base, end, n int) []int {
	var out []int
	last := base
	for i := 1; i <= n; i++ {
		at := base + (end-base)*i/(n+1)
		if at > last {
			out = append(out, at)
			last = at
		}
	}
	return out
}

func writeFile(path string, save func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadChain reads a whole chain file before decoding it, so compact
// can rewrite the same path.
func loadChain(path string) (*ckpt.Chain, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ckpt.Load(bytes.NewReader(data))
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	in := fs.String("i", "machine.ckpt", "chain file")
	_ = fs.Parse(args)
	chain, err := loadChain(*in)
	if err != nil {
		return err
	}
	if err := check.VerifyChain(chain); err != nil {
		return err
	}
	end := chain.Base.Meta.SnapAt + int(chain.Journal.Watermark()) + chain.Journal.Len()
	fmt.Printf("restored %s: config=%s base@%d + %d delta(s) to op %d, journal replayed to op %d/%d — machine state, differential image, and invariants all bit-identical\n",
		*in, chain.Base.Meta.Config, chain.Base.Meta.SnapAt, len(chain.Deltas),
		chain.LastUpTo(), end, chain.Base.Meta.TraceOps)
	return nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	in := fs.String("i", "machine.ckpt", "chain file")
	out := fs.String("o", "", "output file (default: rewrite in place)")
	_ = fs.Parse(args)
	if *out == "" {
		*out = *in
	}
	chain, err := loadChain(*in)
	if err != nil {
		return err
	}
	before := chain.Journal.Len()
	upTo := uint64(chain.LastUpTo() - chain.Base.Meta.SnapAt)
	if err := chain.Journal.Compact(upTo); err != nil {
		return err
	}
	if err := writeFile(*out, func(f *os.File) error { return chain.Save(f) }); err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d -> %d journal records, watermark %d (op %d, the last capture)\n",
		*out, before, chain.Journal.Len(), chain.Journal.Watermark(), chain.LastUpTo())
	return nil
}

func cmdCrash(args []string) error {
	fs := flag.NewFlagSet("crash", flag.ExitOnError)
	seed, ops, cpus, config := traceFlags(fs)
	at := fs.Int("at", -1, "crash after this many ops (default 3*ops/4)")
	snapAt := fs.Int("snap-at", -1, "checkpoint after this many ops (default at/2)")
	torn := fs.Bool("torn", false, "cut the journal mid-record at the crash point")
	_ = fs.Parse(args)
	if *at < 0 {
		*at = *ops * 3 / 4
	}
	if *snapAt < 0 {
		*snapAt = *at / 2
	}
	opts := check.Options{Seed: *seed, Ops: *ops, CPUs: *cpus, Configs: configList(*config)}
	reports, failure, err := check.CrashRecoverIncremental(opts, *snapAt, nil, *at, *torn)
	if err != nil {
		return err
	}
	if failure != nil {
		return failure
	}
	for _, r := range reports {
		fmt.Printf("%-8s snap@%d crash@%d recovered@%d: %d journal records replayed, %d torn bytes discarded, %d chain bytes — recovered run bit-identical to uncrashed control\n",
			r.Config, r.BaseAt, r.CrashAt, r.RecoveredAt, r.JournalRecords, r.TornBytes, r.ChainBytes)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "machine.ckpt", "chain file")
	_ = fs.Parse(args)
	chain, err := loadChain(*in)
	if err != nil {
		return err
	}
	trace, err := check.DecodeTrace(chain.Base.Trace)
	if err != nil {
		return err
	}
	meta := chain.Base.Meta
	fmt.Printf("format:        checkpoint chain (base + %d deltas)\n", len(chain.Deltas))
	fmt.Printf("config:        %s\n", meta.Config)
	fmt.Printf("cpus:          %d\n", meta.CPUs)
	fmt.Printf("seed:          %d\n", meta.Seed)
	fmt.Printf("tier:          %v\n", meta.Tier)
	fmt.Printf("base:          op %d of %d, %d materialized frames, mem checksum %#x\n",
		meta.SnapAt, meta.TraceOps, len(chain.BaseFrames), chain.Base.MemChecksum)
	for _, d := range chain.Deltas {
		fmt.Printf("  delta %d: up to op %d — %d dirty frames in %d units, mem checksum %#x\n",
			d.Epoch, d.UpTo, len(d.Frames), len(d.Units), d.MemChecksum)
	}
	wm := chain.Journal.Watermark()
	first := meta.SnapAt + int(wm)
	fmt.Printf("journal:       %d records (ops %d..%d), watermark %d (%d records compacted away)\n",
		chain.Journal.Len(), first, first+chain.Journal.Len(), wm, wm)
	fmt.Printf("trace:         %d ops (%d bytes encoded)\n", len(trace), len(chain.Base.Trace))
	return nil
}
