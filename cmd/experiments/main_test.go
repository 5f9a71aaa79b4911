package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownFigureIsAnError(t *testing.T) {
	for _, id := range []string{"fig99", "Fig11", "fig11,nosuchfig"} {
		var out bytes.Buffer
		err := run([]string{"-quick", "-only", id}, &out)
		if err == nil {
			t.Fatalf("-only %s: no error", id)
		}
		if !strings.Contains(err.Error(), "table1, fig6") ||
			!strings.Contains(err.Error(), "fig11") {
			t.Errorf("-only %s: error %q does not name the valid ids", id, err)
		}
		if out.Len() > 0 {
			t.Errorf("-only %s printed %q", id, out.String())
		}
	}
}

func TestQuickFig11(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "fig11"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "fig11:") {
		t.Fatalf("output does not open with the fig11 block:\n%s", text)
	}
	for _, label := range []string{"case1-A40trace-ddp", "case2-H100trace-tp"} {
		if !strings.Contains(text, label) {
			t.Errorf("fig11 block has no %s row", label)
		}
	}
	if strings.Contains(text, "fig10:") {
		t.Error("-only fig11 printed another figure")
	}
}

func TestUnexpectedArgument(t *testing.T) {
	if err := run([]string{"fig11"}, &bytes.Buffer{}); err == nil {
		t.Fatal("positional argument accepted")
	}
}
