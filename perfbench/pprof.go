package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modules are the program's layers as host_self_pct reports them: the
// root package (browsix), every internal package, and the Go runtime's
// garbage collector and allocator.
var modules = []string{"browsix", "sched", "browser", "core", "abi", "rt", "fs",
	"snapshot", "shell", "coreutils", "posix", "httpx", "netsim", "meme", "tex", "mk", "runtime"}

// gcFrames mark a sample as garbage collection or allocation wherever
// they appear on its stack.
var gcFrames = map[string]bool{
	"runtime.mallocgc":       true,
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcAssistAlloc":  true,
	"runtime.GC":             true,
}

// moduleOf maps a function symbol to its program module, "bench" for
// this harness, or "" for the standard library.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "repro."):
		return "browsix"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// classify attributes one stack (leaf first) to a module: GC and malloc
// to "runtime", otherwise the innermost frame that belongs to a module
// (standard-library work is charged to the module that called it).
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime"
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// foldProfiles adds the samples of the CPU profiles in files to the
// module classify picks for each stack, in sample time. The go tool's
// pprof prints every stack, leaf first, as a block of lines: the first
// carries the sample time before the function.
func foldProfiles(files []string, into map[string]int64) error {
	if len(files) == 0 {
		return nil
	}
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, files...)...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	var stack []string
	var n time.Duration
	flush := func() {
		if len(stack) > 0 {
			into[classify(stack)] += n.Nanoseconds()
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(f) == 0 || len(stack) == 0 && len(f) < 2:
		case len(stack) == 0:
			if n, err = time.ParseDuration(f[0]); err != nil {
				continue // a header line
			}
			stack = append(stack, f[1])
		case strings.HasPrefix(line, "   "):
			stack = append(stack, f[0])
		}
	}
	flush()
	return nil
}
