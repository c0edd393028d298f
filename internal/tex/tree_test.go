package tex_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/tex"
)

// TestBuildTreeSharedAndImmutable: BuildTree returns the same map for
// the same config, and nothing an instance does to its mounted copy of
// the distribution — a build that fetches from it, then a guest write
// that copies a file up into the overlay — reaches the shared bytes.
func TestBuildTreeSharedAndImmutable(t *testing.T) {
	cfg := tex.SmallTree()
	tree := tex.BuildTree(cfg)
	if again := tex.BuildTree(cfg); reflect.ValueOf(again).UnsafePointer() != reflect.ValueOf(tree).UnsafePointer() {
		t.Fatal("BuildTree rebuilt the distribution for the same config")
	}
	pristine := make(map[string][]byte, len(tree))
	for p, b := range tree {
		pristine[p] = append([]byte(nil), b...)
	}

	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, cfg, browsix.TexSync, docTex, docBib)
	if code, log := in.BuildPDF(); code != 0 {
		t.Fatalf("build failed (%d):\n%s", code, log)
	}
	const rel = "/sty/graphicx.sty"
	var stderr bytes.Buffer
	p, err := in.Start(browsix.Spec{
		Argv:   []string{"/bin/sh", "-c", "echo EDIT >> " + tex.TexRoot + rel + "; cp /etc/motd " + tex.TexRoot + "/fonts/cmr10.tfm"},
		Stderr: &stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := p.Wait(); err != nil || code != 0 {
		t.Fatalf("guest write: code %d err %v stderr %q", code, err, stderr.Bytes())
	}
	got, err := in.FS().ReadFile(strings.TrimPrefix(tex.TexRoot+rel, "/"))
	if err != nil || !strings.HasSuffix(string(got), "EDIT\n") {
		t.Fatalf("the guest's write is not visible in the instance: err %v", err)
	}

	if len(tree) != len(pristine) {
		t.Fatalf("tree has %d files, was %d", len(tree), len(pristine))
	}
	for p, b := range pristine {
		if !bytes.Equal(tree[p], b) {
			t.Errorf("%s changed in the shared tree", p)
		}
	}
}
