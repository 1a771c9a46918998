package experiments

import (
	"strings"
	"testing"
)

func TestFigure1Snapshot(t *testing.T) {
	f1, err := F1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1, "FIGURE 1") {
		t.Error("caption missing")
	}
	// Deterministic.
	again, err := F1()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != again {
		t.Error("Figure 1 not deterministic")
	}
	if len(strings.Split(f1, "\n")) < 40 {
		t.Error("Figure 1 suspiciously small")
	}
}

func TestFigure2Snapshot(t *testing.T) {
	f2, err := F2()
	if err != nil {
		t.Fatal(err)
	}
	again, err := F2()
	if err != nil {
		t.Fatal(err)
	}
	if f2 != again {
		t.Error("Figure 2 not deterministic")
	}
	if !strings.Contains(f2, "FIGURE 2") {
		t.Error("caption missing")
	}
}

func TestE4ShapeHolds(t *testing.T) {
	out, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "effort ratio") {
		t.Errorf("E4 output:\n%s", out)
	}
	tool, pkg, err := BuildClassroomWithTool()
	if err != nil {
		t.Fatal(err)
	}
	if tool.Ops() < 20 || tool.Ops() > 80 {
		t.Errorf("tool ops = %d, outside plausible range", tool.Ops())
	}
	if len(pkg) == 0 {
		t.Error("tool-built package empty")
	}
}

func TestE5ShapeHolds(t *testing.T) {
	out, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3D/video") {
		t.Errorf("E5 output:\n%s", out)
	}
}

func TestE7SmallCohort(t *testing.T) {
	out, err := E7(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reward boost") {
		t.Errorf("E7 output:\n%s", out)
	}
}

func TestE9Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations take a few seconds")
	}
	out, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hit-testing", "event dispatch", "undo"} {
		if !strings.Contains(out, want) {
			t.Errorf("E9 missing %q:\n%s", want, out)
		}
	}
}

func TestE10SmallFleet(t *testing.T) {
	out, err := E10(30)
	if err != nil {
		t.Fatal(err)
	}
	// Every sweep row must end in the exact-match column; the footer text
	// also says "exact", so assert on the row token specifically.
	if strings.Count(out, "| exact") != 3 || strings.Contains(out, "MISMATCH") {
		t.Errorf("E10 output:\n%s", out)
	}
}

func TestE17SmallFleet(t *testing.T) {
	out, err := E17(24)
	if err != nil {
		t.Fatal(err)
	}
	// Both hosted rows must report outcomes identical to local simulation,
	// and all three deployment shapes must appear.
	if strings.Count(out, "| = local") != 2 || strings.Contains(out, "DIVERGED") {
		t.Errorf("E17 output:\n%s", out)
	}
	for _, want := range []string{"local-sim", "remote-thin", "remote-mirror"} {
		if !strings.Contains(out, want) {
			t.Errorf("E17 missing %q:\n%s", want, out)
		}
	}
}

func TestE13DeltaSync(t *testing.T) {
	out, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cold (empty cache)", "warm (unchanged)", "delta (1-seg edit)", "dedup hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("E13 missing %q:\n%s", want, out)
		}
	}
	// The warm row is a single conditional request with zero bytes.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "warm (unchanged)") && !strings.Contains(line, "0.0%") {
			t.Errorf("warm sync not free:\n%s", line)
		}
	}
}

func TestE16SmallFaultSweep(t *testing.T) {
	out, err := E16(30)
	if err != nil {
		t.Fatal(err)
	}
	// E16 itself enforces zero failed learners and exact telemetry
	// accounting per profile (it errors otherwise); the smoke test checks
	// every condition actually ran.
	for _, want := range []string{"clean", "wifi-flaky", "partition", "zero failed learners"} {
		if !strings.Contains(out, want) {
			t.Errorf("E16 missing %q:\n%s", want, out)
		}
	}
}

func TestE14SmallChurn(t *testing.T) {
	out, err := E14(40)
	if err != nil {
		t.Fatal(err)
	}
	// The churn run's second reading, from /metrics: one latency row per
	// node the gateway lists (three, the replacement included) and the
	// gateway's routed-call count.
	for _, want := range []string{
		"learners failed       : 0 of 40",
		"resumed at tick       : 9",
		"freeze + thaw + act",
		"node           acts    act p50",
		"routed calls          : ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E14 missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\nnode-"); n != 3 || strings.Contains(out, "scrape failed") {
		t.Errorf("E14's latency table has %d node rows, want 3:\n%s", n, out)
	}
}

func TestE18SmallClassroom(t *testing.T) {
	// E18's full sweep runs three cohorts through 4-second lessons; the
	// smoke test drives one small cohort through a 1-second lesson against
	// the same server and leans on e18Run's own invariant checks (every
	// replica at the room's seq in its driver's state, zero lost answers,
	// full cohort participation — it errors on any violation).
	s, err := served(untimed(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sum, err := e18Run(s.URL, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Acts == 0 || sum.Delivered == 0 {
		t.Fatalf("degenerate run: %+v", sum)
	}
	if out := sum.String(); !strings.Contains(out, "every replica at its room's seq and state") {
		t.Errorf("summary lost the replica invariant line:\n%s", out)
	}
}

// TestE19SmallStreaming runs E19's invariants in tier-1 on two profiles
// and two learners: E19 errors on any rebuffer and on a per-tier byte
// count that does not reconcile against /metrics, and neither profile
// resets a reply, so both rows must reconcile exactly.
func TestE19SmallStreaming(t *testing.T) {
	out, err := E19([]string{"clean", "mobile-3g"}, 2)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, profile := range []string{"clean", "mobile-3g"} {
		var row string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), profile+" ") {
				row = line
			}
		}
		if fields := strings.Split(row, "|"); len(fields) != 6 || strings.TrimSpace(fields[2]) != "0" || strings.TrimSpace(fields[5]) != "exact" {
			t.Errorf("%s row %q: want zero rebuffers and exact reconciliation\n%s", profile, row, out)
		}
	}
}
