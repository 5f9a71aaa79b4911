package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"triosim"
)

// TestFileAndZooProfilesMatch profiles a zoo trace directly and through a
// file written from it: the trace file round-trips, so the two reports are
// the same bytes.
func TestFileAndZooProfilesMatch(t *testing.T) {
	tr, err := triosim.CollectTrace("resnet18", 32, "A100")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromZoo bytes.Buffer
	if err := run([]string{path}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "resnet18", "-batch", "32"},
		&fromZoo); err != nil {
		t.Fatal(err)
	}
	text := fromFile.String()
	if !strings.HasPrefix(text, "trace: resnet18 on A100, batch 32") {
		t.Fatalf("profile does not open with the trace header:\n%s", text)
	}
	if !strings.Contains(text, "category") {
		t.Fatalf("profile has no category table:\n%s", text)
	}
	if text != fromZoo.String() {
		t.Fatalf("file profile differs from zoo profile:\n%s\nvs\n%s", text,
			fromZoo.String())
	}
}

func TestBadCommandLines(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"a.json", "b.json"},
		{"-model", "resnet18", "a.json"},
		{filepath.Join(dir, "missing.json")},
		{"-model", "nosuchmodel"},
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
