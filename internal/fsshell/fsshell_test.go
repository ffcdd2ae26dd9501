package fsshell

import (
	"strings"
	"testing"

	"repro/internal/memfs"
)

// The scripts the tests run; FuzzExecLine starts from them too.
const (
	scriptLifecycle = `
		mkdir /data
		create /data/db persistent
		write /data/db hello-world
		read /data/db 11
		ls /data
		df
	`
	scriptCrashRecovery = `
		create /keep persistent
		write /keep durable
		create /lose volatile
		write /lose gone
		crash
		remount
		read /keep 7
		read /lose 4
	`
	scriptQuota = `
		mkdir /q
		quota /q 4
		create /q/f
		truncate /q/f 8
		usage /q
		truncate /q/f 2
		usage /q
	`
	scriptRenameLinkDiscard = `
		create /a discardable
		truncate /a 8
		create /b
		write /b data
		mv /b /c
		ln /c /d
		rm /c
		read /d 4
		discard 8
		stat /a
	`
	scriptErrorsAndComments = `
		# this is a comment

		bogus-command
		read /missing 4
		mkdir
	`
	scriptCheck = `
		create /f
		write /f data
		check
	`
	scriptHandles = `
		open /f create
		write h0 hello-world
		seek h0 0
		read h0 5
		seek h0 2 cur
		read h0 5
		seek h0 -5 end
		write h0 earth
		read-at /f 0 12
		handles
		close h0
		read h0 1
	`
	scriptHandleFlagsAndTruncate = `
		open /log create append
		write h0 one
		seek h0 0
		write h0 two
		read-at /log 0 6
		open /log excl
		open /log create excl
		truncate h0 0
		stat /log
		open /fresh create trunc
		close h1
		close h0
	`
	scriptWalkAndRemountInvalidatesHandles = `
		mkdir /d
		create /d/inner persistent
		open /d/inner
		walk /
		crash
		remount
		read h0 1
	`
	scriptAppendAndTime = `
		create /log
		write /log aaa
		append /log bbb
		read /log 6
		time
	`
)

// seedScripts lists every test script.
var seedScripts = []string{
	scriptLifecycle,
	scriptCrashRecovery,
	scriptQuota,
	scriptRenameLinkDiscard,
	scriptErrorsAndComments,
	scriptCheck,
	scriptHandles,
	scriptHandleFlagsAndTruncate,
	scriptWalkAndRemountInvalidatesHandles,
	scriptAppendAndTime,
}

// run executes a script line by line and returns the collected output.
func run(t *testing.T, policy memfs.AllocPolicy, script string) string {
	t.Helper()
	var out strings.Builder
	sh, err := New(policy, 65536, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(script, "\n") {
		sh.ExecLine(strings.TrimSpace(line))
	}
	return out.String()
}

func TestScriptLifecycle(t *testing.T) {
	out := run(t, memfs.Extent, scriptLifecycle)
	for _, want := range []string{
		"wrote 11 bytes at 0",
		`"hello-world"`,
		"db (persistent)",
		"free /",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptCrashRecovery(t *testing.T) {
	out := run(t, memfs.Extent, scriptCrashRecovery)
	if !strings.Contains(out, `"durable"`) {
		t.Fatalf("persistent data lost:\n%s", out)
	}
	if !strings.Contains(out, "1 volatile file(s) dropped") {
		t.Fatalf("volatile file not dropped:\n%s", out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "not found") {
		t.Fatalf("reading the dropped file should error:\n%s", out)
	}
}

func TestScriptQuota(t *testing.T) {
	out := run(t, memfs.Extent, scriptQuota)
	if !strings.Contains(out, "quota exceeded") {
		t.Fatalf("over-quota truncate not rejected:\n%s", out)
	}
	if !strings.Contains(out, "2/4 frames") {
		t.Fatalf("usage not reported:\n%s", out)
	}
}

func TestScriptRenameLinkDiscard(t *testing.T) {
	out := run(t, memfs.Extent, scriptRenameLinkDiscard)
	if !strings.Contains(out, `"data"`) {
		t.Fatalf("link lost data:\n%s", out)
	}
	if !strings.Contains(out, "discarded 8 frames") {
		t.Fatalf("discard failed:\n%s", out)
	}
	if !strings.Contains(out, "not found") {
		t.Fatalf("discarded file should be gone:\n%s", out)
	}
}

func TestScriptErrorsAndComments(t *testing.T) {
	out := run(t, memfs.PerPage, scriptErrorsAndComments)
	if got := strings.Count(out, "error:"); got != 3 {
		t.Fatalf("want 3 errors, got %d:\n%s", got, out)
	}
}

func TestScriptCheck(t *testing.T) {
	out := run(t, memfs.Extent, scriptCheck)
	if !strings.Contains(out, "fsck: clean") {
		t.Fatalf("check missing:\n%s", out)
	}
}

func TestScriptHandles(t *testing.T) {
	out := run(t, memfs.Extent, scriptHandles)
	for _, want := range []string{
		"h0 = /f",
		"wrote 11 bytes, pos 11",
		"pos 0",
		`"hello"`,
		"pos 7",
		`"orld" (eof)`,
		"pos 6",
		`"hello-earth"`,
		"h0 ino=",
		"no open handle",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptHandleFlagsAndTruncate(t *testing.T) {
	out := run(t, memfs.Extent, scriptHandleFlagsAndTruncate)
	for _, want := range []string{
		`"onetwo"`,              // append-mode handle writes land at EOF despite the seek
		"OExcl without OCreate", // excl alone refused
		"exists",                // OCreate|OExcl on an existing file refused
		"size=0",                // handle-based truncate took effect
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptWalkAndRemountInvalidatesHandles(t *testing.T) {
	out := run(t, memfs.Extent, scriptWalkAndRemountInvalidatesHandles)
	for _, want := range []string{
		"d          0  /d",
		"  /d/inner",
		"1 stale handle(s) invalidated",
		"no open handle",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptAppendAndTime(t *testing.T) {
	out := run(t, memfs.Extent, scriptAppendAndTime)
	if !strings.Contains(out, `"aaabbb"`) {
		t.Fatalf("append failed:\n%s", out)
	}
	if !strings.Contains(out, "virtual time") {
		t.Fatalf("time missing:\n%s", out)
	}
}
