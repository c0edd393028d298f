package browsix_test

import (
	"testing"

	browsix "repro"
)

// Differential proof for the shell case studies: the asynchronous
// transport, the scalar synchronous transport, and the ring transport run
// the same pipelines to byte-identical results — and for each transport,
// the VFS caches (dentry + page cache behind the namei walker) change
// nothing observable: cache-on and cache-off runs are byte-identical too.
// The sync instances stage the coreutils on a synchronous runtime (wasm)
// so every utility syscall travels the path under test.

func TestShellCaseStudiesIdenticalAcrossTransports(t *testing.T) {
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}
	cmds := []string{
		"cat /data/fruit.txt | grep apple | sort | tee /data/apples.txt | wc -l",
		"cat /big.bin | wc -c",
		"sha1sum /big.bin",
		"echo hello vectored world | tee /out.txt | wc -w",
		"ls /usr/bin",
		"env",
		// Symlinks through the per-component walker: a relative target
		// resolved against its directory, then read back through it.
		"ln -s fruit.txt /data/link",
		"readlink /data/link",
		"cat /data/link",
		"ls /data",
		// SIGPIPE goes to the writer: head exits early, seq dies, and
		// the shell that created the pipe survives to report head's
		// status.
		"seq 1 200000 | head -n 1",
	}
	type result struct {
		stdouts []string
		apples  string
		out     string
		ring    int64
	}
	run := func(name string, sync, disableRing, caches bool) result {
		in := browsix.Boot(browsix.Config{})
		browsix.InstallBase(in)
		in.Kernel.DisableRing = disableRing
		in.VFS.SetCaching(caches)
		if sync {
			browsix.InstallWasmCoreutils(in)
		}
		writeFile(t, in, "/data/fruit.txt", []byte("banana\napple\ncherry\napple pie\n"))
		writeFile(t, in, "/big.bin", payload)
		var r result
		for _, cmd := range cmds {
			res := runCmd(t, in, cmd)
			if res.Code != 0 {
				t.Fatalf("%s: %q exited %d: %s", name, cmd, res.Code, res.Stderr)
			}
			r.stdouts = append(r.stdouts, string(res.Stdout))
		}
		r.apples = string(readFile(t, in, "/data/apples.txt"))
		r.out = string(readFile(t, in, "/out.txt"))
		r.ring = in.Kernel.RingSyscalls.Load()
		return r
	}

	async := run("async", false, false, true)
	scalar := run("sync-scalar", true, true, true)
	ring := run("sync-ring", true, false, true)

	if scalar.ring != 0 {
		t.Errorf("scalar instance used the ring (%d calls)", scalar.ring)
	}
	if ring.ring == 0 {
		t.Error("ring instance never used the ring transport")
	}
	for i, cmd := range cmds {
		if async.stdouts[i] != scalar.stdouts[i] {
			t.Errorf("%q: async %q != sync-scalar %q", cmd, async.stdouts[i], scalar.stdouts[i])
		}
		if scalar.stdouts[i] != ring.stdouts[i] {
			t.Errorf("%q: sync-scalar %q != sync-ring %q", cmd, scalar.stdouts[i], ring.stdouts[i])
		}
	}
	if async.apples != scalar.apples || scalar.apples != ring.apples {
		t.Errorf("apples.txt diverged: %q / %q / %q", async.apples, scalar.apples, ring.apples)
	}
	if async.out != scalar.out || scalar.out != ring.out {
		t.Errorf("out.txt diverged: %q / %q / %q", async.out, scalar.out, ring.out)
	}
	if async.apples != "apple\napple pie\n" {
		t.Errorf("apples.txt content %q", async.apples)
	}
	if got := async.stdouts[7]; got != "fruit.txt\n" {
		t.Errorf("readlink output %q", got)
	}
	if got := async.stdouts[8]; got != "banana\napple\ncherry\napple pie\n" {
		t.Errorf("cat-through-symlink output %q", got)
	}

	// Cache-off runs for every transport: the VFS caches must be purely
	// an optimization — bytes identical everywhere.
	for _, cold := range []struct {
		name        string
		sync        bool
		disableRing bool
		warm        result
	}{
		{"async-nocache", false, false, async},
		{"sync-scalar-nocache", true, true, scalar},
		{"sync-ring-nocache", true, false, ring},
	} {
		got := run(cold.name, cold.sync, cold.disableRing, false)
		for i, cmd := range cmds {
			if got.stdouts[i] != cold.warm.stdouts[i] {
				t.Errorf("%s %q: cache-off %q != cache-on %q", cold.name, cmd, got.stdouts[i], cold.warm.stdouts[i])
			}
		}
		if got.apples != cold.warm.apples || got.out != cold.warm.out {
			t.Errorf("%s: file contents diverged between cache modes", cold.name)
		}
	}
}
