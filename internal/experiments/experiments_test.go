package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The figure tests run in quick mode (trimmed workload lists) and assert the
// paper's qualitative reproduction targets, not absolute numbers.

func TestFig6SingleGPUPrediction(t *testing.T) {
	f, err := Fig6(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper: single-GPU batch extrapolation is the most accurate setting
	// (≈1–3%). Allow a safety margin.
	for _, cfg := range []string{"A40", "A100"} {
		if e := f.MeanValue("error_pct", cfg); e > 5 {
			t.Fatalf("%s avg error %.2f%% too high", cfg, e)
		}
	}
	// Normalized times hug 1.
	for _, r := range f.Rows {
		if n := r.Get("normalized"); n < 0.9 || n > 1.1 {
			t.Fatalf("%s/%s normalized %.3f far from 1",
				r.Model, r.Config, n)
		}
	}
}

func TestFig7And8ErrorOrdering(t *testing.T) {
	f7, err := Fig7(true)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8(true)
	if err != nil {
		t.Fatal(err)
	}
	stdErr := f7.MeanValue("error_pct", "")
	ddpErr := f8.MeanValue("error_pct", "P1-DDP")
	// Paper: standard DP (7.39%) is predicted worse than DDP (2.91%).
	if stdErr <= ddpErr {
		t.Fatalf("std-DP error %.2f%% not above DDP %.2f%%", stdErr, ddpErr)
	}
	if ddpErr > 12 {
		t.Fatalf("DDP error %.2f%% out of band", ddpErr)
	}
	if stdErr > 20 {
		t.Fatalf("std-DP error %.2f%% out of band", stdErr)
	}
}

func TestFig9TPBand(t *testing.T) {
	f, err := Fig9(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []string{"P1-TP", "P2-TP"} {
		if e := f.MeanValue("error_pct", cfg); e > 25 {
			t.Fatalf("%s avg error %.2f%% out of band", cfg, e)
		}
	}
}

func TestFig10ChunkErrorGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy multi-GPU figure; run without -short")
	}
	f, err := Fig10(true)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape on 2 GPUs: error grows from 1 chunk to 4 chunks.
	e1 := f.MeanValue("error_pct", "2xA100-1chunk")
	e4 := f.MeanValue("error_pct", "2xA100-4chunk")
	if e4 <= e1 {
		t.Fatalf("4-chunk error %.2f%% not above 1-chunk %.2f%%", e4, e1)
	}
}

func TestFig11CrossGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy multi-GPU figure; run without -short")
	}
	f, err := Fig11(true)
	if err != nil {
		t.Fatal(err)
	}
	// All variants stay in the paper's "reasonable" band (<25% avg) and the
	// same-GPU DDP case is at least as good as the cross-GPU A40 case.
	for _, cfg := range f.Configs() {
		if e := f.MeanValue("error_pct", cfg); e > 25 {
			t.Fatalf("%s avg error %.2f%%", cfg, e)
		}
	}
	cross := f.MeanValue("error_pct", "case1-A40trace-ddp")
	same := f.MeanValue("error_pct", "case2-H100trace-ddp")
	if same > cross+5 {
		t.Fatalf("same-GPU DDP error %.2f%% far above cross-GPU %.2f%%",
			same, cross)
	}
}

func TestFig12Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy multi-GPU figure; run without -short")
	}
	f, err := Fig12(true)
	if err != nil {
		t.Fatal(err)
	}
	// DP is fastest at fixed total batch — both predicted and on hardware.
	byModel := map[string]map[string]float64{}
	for _, r := range f.Rows {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[string]float64{}
		}
		byModel[r.Model][r.Config] = r.Get("predicted_s")
	}
	for m, times := range byModel {
		if times["dp"] >= times["tp"] || times["dp"] >= times["pp"] {
			t.Fatalf("%s: DP not fastest: %v", m, times)
		}
	}
	// Ranking agreement note exists.
	found := false
	for _, n := range f.Notes {
		if strings.Contains(n, "agreement") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing agreement note")
	}
}

func TestFig13TPCommShareHigher(t *testing.T) {
	f, err := Fig13(true)
	if err != nil {
		t.Fatal(err)
	}
	tp := f.MeanValue("comm_ratio", "tp")
	ddp := f.MeanValue("comm_ratio", "ddp")
	if tp <= ddp {
		t.Fatalf("TP comm ratio %.3f not above DDP %.3f", tp, ddp)
	}
}

func TestFig14WithinSeconds(t *testing.T) {
	f, err := Fig14(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if w := r.Get("wallclock_s"); w > 10 {
			t.Fatalf("%s simulation took %.1fs (not 'within seconds')",
				r.Model, w)
		}
		if r.Get("sim_tasks") <= 0 || r.Get("sim_events") <= 0 {
			t.Fatalf("%s missing size metrics", r.Model)
		}
	}
}

func TestFig15PhotonicShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy multi-GPU figure; run without -short")
	}
	f, err := Fig15(true)
	if err != nil {
		t.Fatal(err)
	}
	// Electrical comm dominates; VGG-19's ratio is ≈0.9 in the paper.
	var vggRatio float64
	for _, r := range f.Rows {
		if r.Model == "vgg19" && r.Config == "electrical" {
			vggRatio = r.Get("comm_ratio")
		}
	}
	if vggRatio < 0.8 {
		t.Fatalf("VGG-19 electrical comm ratio %.2f below 0.8 (paper: 0.92)",
			vggRatio)
	}
	// Photonic cuts communication time substantially (paper: nearly half).
	elec := f.MeanValue("comm_s", "electrical")
	phot := f.MeanValue("comm_s", "photonic")
	reduction := 1 - phot/elec
	if reduction < 0.25 || reduction > 0.75 {
		t.Fatalf("photonic comm reduction %.0f%% outside [25,75]%%",
			reduction*100)
	}
}

func TestFig16BackupSpeedups(t *testing.T) {
	f, err := Fig16(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) < 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if sp := r.Get("speedup"); sp < 0.99 {
			t.Fatalf("%s/%s speedup %.3f below 1", r.Model, r.Config, sp)
		}
	}
	// Speedups vary across scenarios.
	var lo, hi float64 = 1e9, 0
	for _, r := range f.Rows {
		sp := r.Get("speedup")
		if sp < lo {
			lo = sp
		}
		if sp > hi {
			hi = sp
		}
	}
	if hi-lo < 0.01 {
		t.Fatal("speedups do not vary")
	}
}

func TestFigurePrinting(t *testing.T) {
	f := &Figure{ID: "figX", Title: "test", Columns: []string{"a", "b"}}
	f.Add("m1", "c1", map[string]float64{"a": 1, "b": 2})
	f.Add("m2", "c2", map[string]float64{"a": 3})
	f.Note("note %d", 42)

	var buf bytes.Buffer
	f.Print(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "m1", "c2", "note 42", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	f.Markdown(&buf)
	if !strings.Contains(buf.String(), "| m1 | c1 |") {
		t.Fatalf("Markdown output malformed:\n%s", buf.String())
	}

	if f.MeanValue("a", "") != 2 {
		t.Fatalf("MeanValue = %v", f.MeanValue("a", ""))
	}
	if f.MeanValue("a", "c1") != 1 {
		t.Fatal("config-filtered MeanValue wrong")
	}
	if got := f.Configs(); len(got) != 2 || got[0] != "c1" {
		t.Fatalf("Configs = %v", got)
	}
}

func TestAllRunnersRegistered(t *testing.T) {
	rs := All(true)
	if len(rs) != 15 {
		t.Fatalf("runners = %d, want 15 (table1 + fig6..fig16 + resilience + serving + scale)",
			len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil {
			t.Fatalf("runner %s has no function", r.ID)
		}
	}
}

func TestTable1BaselineGap(t *testing.T) {
	f, err := Table1(true)
	if err != nil {
		t.Fatal(err)
	}
	// On the asymmetric fabric TrioSim must beat the analytical baseline;
	// on the symmetric one both should be reasonable.
	trioAsym := f.MeanValue("triosim_err_pct", "asymmetric")
	baseAsym := f.MeanValue("analytical_err_pct", "asymmetric")
	if trioAsym >= baseAsym {
		t.Fatalf("TrioSim %.2f%% not below analytical %.2f%% on asymmetric fabric",
			trioAsym, baseAsym)
	}
	if sym := f.MeanValue("triosim_err_pct", "symmetric"); sym > 15 {
		t.Fatalf("TrioSim symmetric error %.2f%% out of band", sym)
	}
}
