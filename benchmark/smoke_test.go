package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary where
// the harness starts itself as the exchange reference's echo child.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-echo" {
			fmt.Fprintln(os.Stderr, "benchmark:", serveEcho("127.0.0.1:0"))
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload in -quick sizing, untraced and traced,
// the way `go run ./benchmark -quick -trace 1` does, and holds the output
// to BENCHMARK.json: every name emitted once, finite and in unit; the
// span file parses, every child lies within its parent and no self time
// is negative; the three ledger remainders are under half their totals.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts vgbl-server children and publishes courses; skipped under -short")
	}
	// The harness builds ./cmd/vgbl-server and reads BENCHMARK.json, both
	// relative to the module root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	defer killChildren()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 || len(spec.EndToEnd) != 13 || len(spec.PerLayer) != 63 {
		t.Fatalf("BENCHMARK.json defines %d workloads, %d end-to-end and %d layer metrics; want 4, 13, 63",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	bin, _, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		seed: 1, clients: clientCount(), bin: bin, outDir: t.TempDir(), quick: true,
		window: time.Second, warm: 300 * time.Millisecond, setups: 1, probe: time.Second,
	}
	ledgers := 0
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(cfg, spec, w.Name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			// runWorkload already held the metrics to the spec
			// (conform): a miss is one of these failures.
			for _, f := range r.failures {
				t.Errorf("%s traced=%v: %s", w.Name, traced, f)
			}
			if len(r.failures) > 0 && r.stderr != "" {
				t.Logf("server stderr:\n%s", r.stderr)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, r.Attempted, r.Failed)
			}
			if !traced {
				continue
			}
			checkSpans(t, filepath.Join(cfg.outDir, "spans-"+w.Name+".jsonl"))
			if r.Ledger != nil {
				ledgers++
				if math.Abs(r.Ledger.Remainder) >= r.Ledger.Total/2 {
					t.Errorf("%s: ledger leaves %.3f of %.3f unexplained", w.Name, r.Ledger.Remainder, r.Ledger.Total)
				}
			}
		}
	}
	if ledgers != 3 {
		t.Errorf("%d ledger identities reported, want 3 (play-thin, stream, publish)", ledgers)
	}
}

// checkSpans parses a span file and checks its tree.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int64]spanRecord{}
	var all []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("%s: span %d %q ends before it starts", path, s.ID, s.Name)
		}
		if s.Self < 0 {
			t.Errorf("%s: span %d %q has negative self time %d", path, s.ID, s.Name, s.Self)
		}
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d %q names missing parent %d", path, s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("%s: span %d %q [%d,%d] lies outside its parent %q [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		case s.Trace != p.Trace:
			t.Errorf("%s: span %d %q is in trace %d, its parent in %d", path, s.ID, s.Name, s.Trace, p.Trace)
		}
	}
}

// TestRefClock holds the reference clock to what the harness relies on:
// readings never go back, also across the sampler's rate changes, and
// the rate is a plausible host speed.
func TestRefClock(t *testing.T) {
	stop, err := clock.start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	beganWall, began := time.Now(), now()
	prev := began
	for time.Since(beganWall) < 200*time.Millisecond {
		cur := now()
		if cur < prev {
			t.Fatalf("reference clock went back: %d after %d", cur, prev)
		}
		prev = cur
	}
	rate := float64(since(began)) / float64(time.Since(beganWall))
	if rate < 0.02 || rate > 50 {
		t.Errorf("reference clock ran at %.3f of wall time", rate)
	}
}
