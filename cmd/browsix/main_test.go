package main

import (
	"io"
	"strings"
	"testing"

	browsix "repro"
)

// Smoke test for the CLI's core path: boot → InstallBase → Start + Wait,
// exactly what run() does per input line, so `go test` exercises the
// binary's round trip without spawning a process.
func TestCLIRoundTrip(t *testing.T) {
	inst := browsix.Boot(browsix.Config{})
	browsix.InstallBase(inst)

	run := func(line string) (int, string) {
		t.Helper()
		p, err := inst.Start(browsix.Spec{Argv: browsix.SplitCmdline(line)})
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		code, err := p.Wait()
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out, _ := io.ReadAll(p.Stdout())
		return code, string(out)
	}

	start := inst.Now()
	code, out := run("echo hi | wc -c")
	if code != 0 {
		t.Fatalf("pipeline exited %d", code)
	}
	if got := strings.TrimSpace(out); got != "3" {
		t.Fatalf("wc -c printed %q, want 3", got)
	}
	if inst.Now() <= start {
		t.Fatal("no virtual time elapsed")
	}

	// A failing command reports its exit code without wedging the
	// instance.
	if code, _ := run("false"); code != 1 {
		t.Fatalf("false exited %d, want 1", code)
	}
	if code, out := run("cat /etc/motd"); code != 0 || !strings.Contains(out, "Browsix") {
		t.Fatalf("motd: code=%d stdout=%q", code, out)
	}
}
