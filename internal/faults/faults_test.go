package faults

import (
	"strings"
	"testing"

	"triosim/internal/sim"
)

func mustErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestCheckRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name   string
		ev     Event
		substr string
	}{
		{"unknown kind", Event{Kind: "meteor-strike", Duration: sim.Sec},
			"unknown kind"},
		{"negative start",
			Event{Kind: LinkDegrade, Factor: 2, Start: -sim.Sec, Duration: sim.Sec},
			"negative start"},
		{"zero duration",
			Event{Kind: LinkDegrade, Factor: 2, Duration: 0},
			"must be > 0"},
		{"negative duration",
			Event{Kind: GPUSlowdown, Factor: 2, Duration: -sim.Sec},
			"must be > 0"},
		{"factor below one",
			Event{Kind: GPUSlowdown, Factor: 0.5, Duration: sim.Sec},
			"must be >= 1"},
		{"nan factor",
			Event{Kind: LinkDegrade, Factor: nan(), Duration: sim.Sec},
			"must be >= 1"},
		{"factor on link-down",
			Event{Kind: LinkDown, Factor: 2, Duration: sim.Sec},
			"factor must be unset"},
		{"duration on gpu-fail",
			Event{Kind: GPUFail, Duration: sim.Sec},
			"duration must be 0"},
		{"gpu set on link kind",
			Event{Kind: LinkDown, GPU: 1, Duration: sim.Sec},
			"gpu must be unset"},
		{"link set on gpu kind",
			Event{Kind: GPUFail, Link: 1},
			"link must be unset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schedule{Events: []Event{tc.ev}}
			mustErr(t, s.Check(), tc.substr)
		})
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestCheckRejectsOverlapsAndDuplicates(t *testing.T) {
	overlapping := &Schedule{Events: []Event{
		{Kind: LinkDegrade, Link: 2, Factor: 2, Start: 0, Duration: 2 * sim.Sec},
		{Kind: LinkDown, Link: 2, Start: sim.Sec, Duration: sim.Sec},
	}}
	mustErr(t, overlapping.Check(), "overlap")

	dupFail := &Schedule{Events: []Event{
		{Kind: GPUFail, GPU: 1, Start: 3 * sim.Sec},
		{Kind: GPUFail, GPU: 1, Start: 3 * sim.Sec},
	}}
	mustErr(t, dupFail.Check(), "overlap")

	// Back-to-back windows on one link (end == next start) are fine, as are
	// same-time windows on different resources and repeat fails at
	// different instants.
	ok := &Schedule{Events: []Event{
		{Kind: LinkDegrade, Link: 0, Factor: 2, Start: 0, Duration: sim.Sec},
		{Kind: LinkDown, Link: 0, Start: sim.Sec, Duration: sim.Sec},
		{Kind: GPUSlowdown, GPU: 1, Factor: 3, Start: 0, Duration: 5 * sim.Sec},
		{Kind: GPUFail, GPU: 0, Start: sim.Sec},
		{Kind: GPUFail, GPU: 0, Start: 2 * sim.Sec},
	}}
	if err := ok.Check(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateBounds(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LinkDegrade, Link: 7, Factor: 2, Duration: sim.Sec},
	}}
	mustErr(t, s.Validate(4, 6), "out of range")
	if err := s.Validate(4, 8); err != nil {
		t.Fatalf("in-range link rejected: %v", err)
	}
	g := &Schedule{Events: []Event{{Kind: GPUFail, GPU: 4}}}
	mustErr(t, g.Validate(4, 6), "out of range")
}

func TestWindowsDropsNoOpsAndSorts(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: GPUSlowdown, GPU: 2, Factor: 1, Start: 0, Duration: sim.Sec},
		{Kind: LinkDegrade, Link: 1, Factor: 1, Start: 0, Duration: sim.Sec},
		{Kind: LinkDown, Link: 0, Start: 4 * sim.Sec, Duration: sim.Sec},
		{Kind: GPUSlowdown, GPU: 0, Factor: 2, Start: 2 * sim.Sec, Duration: sim.Sec},
		{Kind: GPUFail, GPU: 1, Start: 9 * sim.Sec},
	}}
	ws := s.Windows()
	if len(ws) != 2 {
		t.Fatalf("want 2 effective windows, got %d: %v", len(ws), ws)
	}
	if ws[0].Kind != GPUSlowdown || ws[0].Resource != 0 || ws[0].Factor != 2 {
		t.Fatalf("first window = %+v", ws[0])
	}
	if ws[1].Kind != LinkDown || ws[1].Factor != 0 {
		t.Fatalf("second window = %+v", ws[1])
	}
	fs := s.Failures()
	if len(fs) != 1 || fs[0].GPU != 1 || fs[0].At != 9*sim.Sec {
		t.Fatalf("failures = %v", fs)
	}
}

func TestDegradedSecondsUnionsAndClamps(t *testing.T) {
	ws := []Window{
		{Start: 0, End: 2 * sim.Sec},
		{Start: sim.Sec, End: 3 * sim.Sec},      // overlaps the first
		{Start: 5 * sim.Sec, End: 20 * sim.Sec}, // clamped at 10
	}
	got := DegradedSeconds(ws, 10*sim.Sec)
	if got != 8 {
		t.Fatalf("DegradedSeconds = %g, want 8", got)
	}
	if DegradedSeconds(nil, 10*sim.Sec) != 0 {
		t.Fatal("empty window set should degrade nothing")
	}
}

func TestParseRoundTripAndErrors(t *testing.T) {
	doc := `{
		"schema": "triosim.faults/v1",
		"events": [
			{"kind": "link-degrade", "link": 1, "factor": 4,
			 "start_sec": 0.1, "duration_sec": 0.2},
			{"kind": "gpu-slowdown", "gpu": 2, "factor": 1.5,
			 "start_sec": 0.05, "duration_sec": 0.3},
			{"kind": "gpu-fail", "gpu": 0, "at_sec": 0.4}
		],
		"checkpoint": {"interval_sec": 0.1, "restart_sec": 0.02}
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 3 || s.Checkpoint == nil {
		t.Fatalf("parsed %d events, checkpoint %v", len(s.Events), s.Checkpoint)
	}
	if s.Events[2].Start != sim.VTime(0.4) {
		t.Fatalf("at_sec not honored: %v", s.Events[2].Start)
	}

	if _, err := Parse([]byte(`{"schema": "bogus/v9", "events": []}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Parse([]byte(
		`{"events":[{"kind":"gpu-fail","gpu":0,"at_sec":1,"start_sec":2}]}`,
	)); err == nil {
		t.Fatal("conflicting at_sec/start_sec accepted")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		NumGPUs: 4, NumLinks: 6, Horizon: 10 * sim.Sec,
		LinkDegrades: 3, LinkDowns: 1, GPUSlowdowns: 2, GPUFails: 2,
		Checkpoint: &Checkpoint{Interval: 2 * sim.Sec},
	}
	a, err := Generate(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 8 {
		t.Fatalf("generated %d events, want 8", len(a.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("seed 7 not reproducible: event %d %+v vs %+v",
				i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(cfg.NumGPUs, cfg.NumLinks); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i, e := range a.Events {
		if e.Kind.usesFactor() && e.Factor < 1.25 {
			t.Fatalf("event %d factor %g below effective floor", i, e.Factor)
		}
	}

	c, err := Generate(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(1, GenConfig{Horizon: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Generate(1, GenConfig{
		Horizon: sim.Sec, LinkDegrades: 1,
	}); err == nil {
		t.Fatal("link events without NumLinks accepted")
	}
	if _, err := Generate(1, GenConfig{
		Horizon: sim.Sec, NumGPUs: 2, GPUFails: 1, MaxFactor: 1.1,
	}); err == nil {
		t.Fatal("sub-floor MaxFactor accepted")
	}
}
