package browsix_test

import (
	"bytes"
	"errors"
	"path"
	"strings"
	"testing"

	browsix "repro"
)

// cmdResult is one command line's outcome.
type cmdResult struct {
	Pid            int
	Code           int
	Stdout, Stderr []byte
	Elapsed        int64 // virtual ns from submission to exit
}

// runCmd runs a command line to completion through Start and Wait. A
// launch failure exits 127, as system(3) reports it; a deadlock fails
// the test.
func runCmd(t testing.TB, in *browsix.Instance, cmdline string) cmdResult {
	t.Helper()
	start := in.Browser.Main.Now()
	var res cmdResult
	var stdout, stderr bytes.Buffer
	p, err := in.Start(browsix.Spec{Argv: browsix.SplitCmdline(cmdline), Stdout: &stdout, Stderr: &stderr})
	if err == nil {
		res.Pid = p.Pid
		res.Code, err = p.Wait()
	} else if !errors.As(err, new(*browsix.ErrDeadlock)) {
		res.Code, err = 127, nil
	}
	if err != nil {
		t.Fatalf("%q: %v", cmdline, err)
	}
	res.Stdout, res.Stderr = stdout.Bytes(), stderr.Bytes()
	res.Elapsed = in.Browser.Main.Now() - start
	return res
}

// writeFile stages a file through the FS() facade, creating its parent
// directories; a failure fails the test.
func writeFile(t testing.TB, in *browsix.Instance, name string, data []byte) {
	t.Helper()
	name = strings.TrimPrefix(name, "/")
	if err := in.FS().MkdirAll(path.Dir(name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := in.FS().WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFile reads a file through the FS() facade; a failure fails the
// test.
func readFile(t testing.TB, in *browsix.Instance, name string) []byte {
	t.Helper()
	data, err := in.FS().ReadFile(strings.TrimPrefix(name, "/"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
