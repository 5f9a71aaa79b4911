package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"triosim"
)

func TestWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var out bytes.Buffer
	err := run([]string{"-model", "resnet18", "-batch", "16", "-gpu", "A40",
		"-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "wrote "+path+":") {
		t.Fatalf("summary does not name the file:\n%s", out.String())
	}
	tr, err := triosim.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Model != "resnet18" || tr.BatchSize != 16 || tr.Device != "A40" {
		t.Fatalf("trace is %s at batch %d on %s, want resnet18 at 16 on A40",
			tr.Model, tr.BatchSize, tr.Device)
	}
}

func TestBadCommandLines(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-model", "nosuchmodel", "-o", filepath.Join(dir, "a.json")},
		{"-gpu", "TPU", "-o", filepath.Join(dir, "b.json")},
		{"-o", filepath.Join(dir, "c.json"), "extra"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() > 0 {
			t.Errorf("%v printed %q", args, out.String())
		}
	}
}
