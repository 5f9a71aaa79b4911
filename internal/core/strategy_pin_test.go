package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim/internal/gpu"
)

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/strategy_pins.txt from the current tree")

const strategyPinsFile = "strategy_pins.txt"

// pinRow renders one pinned outcome: the makespan's float64 bits, the event
// count, the event digest, and the SHA-256 of the RunReport JSON.
func pinRow(key string, res *Result) (string, error) {
	var buf bytes.Buffer
	if err := res.Report.WriteJSON(&buf); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %#016x %d %#016x %x", key,
		math.Float64bits(float64(res.TotalTime)), res.Events, res.EventDigest,
		sha256.Sum256(buf.Bytes())), nil
}

// strategyPins runs the pipeline and tensor families (pp, tp, dp+pp, dp+tp)
// and the data-parallel family (single, dp, ddp, zero1) over three models,
// the three validation platforms and four run shapes, through both Simulate
// and GroundTruth, and returns one pinRow per run, with the outcome digest
// appended, in a fixed order. The data-parallel presets run one micro-batch,
// so their mb4 rows equal their base rows.
func strategyPins(t *testing.T) []string {
	t.Helper()
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"mb4", func(c *Config) { c.MicroBatches = 4 }},
		{"it2", func(c *Config) { c.Iterations = 2 }},
		{"inference", func(c *Config) { c.InferenceOnly = true }},
	}
	paths := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"sim", Simulate}, {"gt", GroundTruth},
	}
	var rows []string
	for _, par := range []Parallelism{PP, TP, DPPP, DPTP, Single, DP, DDP,
		ZeRO1} {
		for _, model := range []string{"resnet18", "vgg16", "gpt2"} {
			for _, plat := range []gpu.Platform{gpu.P1, gpu.P2, gpu.P3} {
				for _, v := range variants {
					for _, path := range paths {
						pl := plat // each run gets its own platform
						cfg := Config{Model: model, Platform: &pl,
							Parallelism: par, Telemetry: true}
						v.set(&cfg)
						key := strings.Join([]string{string(par), model,
							plat.Name, v.name, path.name}, "/")
						res, err := path.run(cfg)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						row, err := pinRow(key, res)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						rows = append(rows, fmt.Sprintf("%s %#016x", row,
							res.OutcomeDigest))
					}
				}
			}
		}
	}
	return rows
}

// TestStrategyPins pins the outcome of every pipeline-, tensor- and
// data-parallel-family run in testdata/strategy_pins.txt: makespan bits,
// event count, event digest, RunReport hash and outcome digest. Every named
// strategy is a preset of the DP×TP×PP grid generator, so a refactor of the
// generator must leave every row unmoved.
// Regenerate deliberately with
//
//	go test ./internal/core -run TestStrategyPins -update-pins
func TestStrategyPins(t *testing.T) {
	got := strategyPins(t)
	path := filepath.Join("testdata", strategyPinsFile)
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data := "# key makespan-bits events event-digest runreport-sha256 outcome-digest\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, pinned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestGridPoint pins how each named strategy resolves to its DP×TP×PP grid
// point, the one resolution plan and MemoryFootprint share.
func TestGridPoint(t *testing.T) {
	cases := []struct {
		par        Parallelism
		groups     int
		tp, pp     int
		wantDP     int
		wantTP     int
		wantPP     int
		wantErrMsg string
	}{
		{par: Single, wantDP: 1, wantTP: 1, wantPP: 1},
		{par: DDP, wantDP: 8, wantTP: 1, wantPP: 1},
		{par: TP, wantDP: 1, wantTP: 8, wantPP: 1},
		{par: PP, wantDP: 1, wantTP: 1, wantPP: 8},
		{par: DPTP, wantDP: 2, wantTP: 4, wantPP: 1},
		{par: DPPP, groups: 4, wantDP: 4, wantTP: 1, wantPP: 2},
		{par: DPTPPP, tp: 2, pp: 2, wantDP: 2, wantTP: 2, wantPP: 2},
		{par: DPTPPP, wantDP: 8, wantTP: 1, wantPP: 1},
		{par: DPPP, groups: 3, wantErrMsg: "not divisible"},
		{par: DPTPPP, tp: 3, wantErrMsg: "not divisible"},
		{par: "mystery", wantErrMsg: "unknown parallelism"},
	}
	for _, c := range cases {
		cfg := Config{Parallelism: c.par, NumGPUs: 8, DPGroups: c.groups,
			TPRanks: c.tp, PPStages: c.pp}
		dp, tp, pp, err := gridPoint(cfg)
		if c.wantErrMsg != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErrMsg) {
				t.Errorf("%s: err %v, want %q", c.par, err, c.wantErrMsg)
			}
			continue
		}
		if err != nil || dp != c.wantDP || tp != c.wantTP || pp != c.wantPP {
			t.Errorf("%s: got (%d, %d, %d, %v), want (%d, %d, %d)", c.par,
				dp, tp, pp, err, c.wantDP, c.wantTP, c.wantPP)
		}
	}
}
