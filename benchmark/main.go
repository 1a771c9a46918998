// Command benchmark is the repository's ruler: four learner/author
// workloads driven from this process against an out-of-process
// vgbl-server, 13 end-to-end metrics, and a ledger of 63 per-layer
// metrics gathered from outside the program. See README.md beside this
// file and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                                   all four workloads, untraced
//	go run ./benchmark -trace 1                          … then a traced run of each
//	go run ./benchmark -workload stream -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -repeat 5 -out a.json             variance across full runs
//	go run ./benchmark -compare a.json b.json            apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every results file.
type environment struct {
	NProc        int     `json:"nproc"`
	Go           string  `json:"go"`
	OS           string  `json:"os"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	Confined     string  `json:"confined"` // the CPU harness and children are pinned to, or why they are not
	WindowS      float64 `json:"window_s"`
	WarmupS      float64 `json:"warmup_s"`
	Setups       int     `json:"setups"`
	ServerBuildS float64 `json:"server_build_s"` // go build of cmd/vgbl-server; not part of setup_s
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload (play-thin, play-mirror, stream, publish) and end with the contract's one-line JSON; empty runs all four")
	seed := flag.Int64("seed", 1, "workload seed: learner i plays seed + 7919·i")
	seconds := flag.Int("seconds", 0, "measured window per workload in seconds (0 = BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: spans, probes, the 63 layer metrics and the ledger identities")
	quick := flag.Bool("quick", false, "smoke sizing: ~1 s windows, one set-up; numbers are not comparable")
	repeat := flag.Int("repeat", 1, "run everything N times and report each end-to-end metric's median and quartiles")
	compare := flag.Bool("compare", false, "compare two results files given as arguments against BENCHMARK.json's bounds")
	out := flag.String("out", "", "write results to this file (default "+buildDir+"/results.json)")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark definition to conform to")
	echo := flag.Bool("echo", false, "serve the exchange reference's echo on -addr (what the harness starts itself as; see refclock.go)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address for -echo")
	flag.Parse()

	if *echo {
		fmt.Fprintln(os.Stderr, "benchmark:", serveEcho(*addr))
		return 1
	}

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two results files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q in %s\n", *workload, *specPath)
		return 2
	}

	// Children die with the harness: on return, on a signal, and (Linux)
	// even if the harness is killed outright.
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	// Build first, on every CPU there is; then shrink to one.
	served := false
	for _, n := range names {
		served = served || n != "publish"
	}
	var bin string
	var built time.Duration
	if served {
		if bin, built, err = buildServer(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	confined := "no: "
	if cpu, err := confine(); err != nil {
		confined += err.Error()
	} else {
		confined = fmt.Sprintf("cpu %d", cpu)
	}
	stopClock, err := clock.start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference clock:", err)
		return 1
	}
	defer stopClock()

	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	cfg := &config{
		seed:    *seed,
		clients: clientCount(),
		window:  time.Duration(*seconds) * time.Second,
		warm:    3 * time.Second,
		setups:  3,
		probe:   5 * time.Second,
		outDir:  buildDir,
		bin:     bin,
	}
	if *quick {
		cfg.quick = true
		cfg.window, cfg.warm, cfg.setups, cfg.probe = time.Second, 300*time.Millisecond, 1, time.Second
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	env := environment{
		NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit(),
		Seed: cfg.seed, Clients: cfg.clients, Confined: confined, WindowS: cfg.window.Seconds(), WarmupS: cfg.warm.Seconds(), Setups: cfg.setups,
		ServerBuildS: built.Seconds(),
	}
	fmt.Printf("benchmark: nproc %d, confined to one CPU: %s, %s, commit %s, seed %d, %d closed-loop clients, window %v after %v warm-up, %d set-ups per run; server build %.2fs (not in setup_s)\n",
		env.NProc, confined, env.Go, env.Commit, env.Seed, env.Clients, cfg.window, cfg.warm, cfg.setups, env.ServerBuildS)

	file := resultsFile{Env: env}
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			for traced := 0; traced <= *trace; traced++ {
				if *workload != "" && traced != *trace {
					continue // driver mode: exactly the run asked for
				}
				r, err := runWorkload(cfg, spec, name, traced == 1)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				printResult(r, spec)
				if len(r.failures) > 0 {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %d correctness checks failed; no results written\n", name, len(r.failures))
					for _, f := range r.failures {
						fmt.Fprintln(os.Stderr, "  FAIL:", f)
					}
					if r.stderr != "" {
						fmt.Fprintf(os.Stderr, "server stderr:\n%s\n", r.stderr)
					}
					return 1
				}
				file.Runs = append(file.Runs, r)
			}
		}
	}
	if *repeat > 1 {
		printSpreads(spec, file.Runs)
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "results.json")
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	if *workload != "" {
		// The contract's last line: one JSON object, exactly these keys.
		last := file.Runs[len(file.Runs)-1]
		line, err := json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Metrics   metrics `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// runWorkload runs one workload once and holds its output to the spec.
func runWorkload(cfg *config, spec *benchSpec, name string, traced bool) (*result, error) {
	var r *result
	var err error
	switch name {
	case "play-thin":
		r, err = runPlay(cfg, name, false, traced)
	case "play-mirror":
		r, err = runPlay(cfg, name, true, traced)
	case "stream":
		r, err = runStream(cfg, traced)
	case "publish":
		r, err = runPublish(cfg, traced)
	default:
		err = fmt.Errorf("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	r.check(r.Failed == 0, "%d of %d operations failed", r.Failed, r.Attempted)
	r.check(r.Attempted > 0, "no operation was attempted")
	specs := spec.EndToEnd
	if traced {
		specs = spec.PerLayer
		// A layer this workload does not exercise reads 0.
		var idle []string
		for _, sp := range specs {
			if _, ok := r.Metrics[sp.Name]; !ok {
				r.Metrics.set(sp.Name, 0, sp.Unit)
				idle = append(idle, sp.Name)
			}
		}
		if len(idle) > 0 {
			r.note("not exercised by %s, reported as 0: %s", name, strings.Join(idle, " "))
		}
	}
	// A -quick window can be too short for a 10 ms CPU tick to land in.
	if err := r.Metrics.conform(specs, !traced && !cfg.quick, r.omitted); err != nil {
		r.fail("%v", err)
	}
	r.Correct = len(r.failures) == 0
	return r, nil
}

func spanPath(cfg *config, workload string) string {
	return filepath.Join(cfg.outDir, "spans-"+workload+".jsonl")
}

// commit names the code under test; a checkout that is not a git
// repository (the driver's) reads "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult prints every metric of a run by name with its unit, in
// the spec's order, then the run's notes.
func printResult(r *result, spec *benchSpec) {
	kind, specs := "end-to-end", spec.EndToEnd
	if r.Traced {
		kind, specs = "per-layer (traced)", spec.PerLayer
	}
	fmt.Printf("\n== %s — %s, seed %d: %d operations attempted, %d failed\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed)
	for _, sp := range specs {
		if v, ok := r.Metrics[sp.Name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", sp.Name, v.Value, v.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("  ·", n)
	}
}

// endToEndValues collects, per workload and end-to-end metric, the
// values of every untraced run, in run order.
func endToEndValues(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// printSpreads is -repeat's report: median and quartiles of every
// end-to-end metric across the full runs, and the interquartile spread
// as a share of the median beside the metric's bound.
func printSpreads(spec *benchSpec, runs []*result) {
	vals := endToEndValues(runs)
	fmt.Printf("\n== spread across runs (q1 / median / q3; spread = (q3−q1)/median)\n")
	for _, w := range spec.Workloads {
		byMetric := vals[w.Name]
		if byMetric == nil {
			continue
		}
		for _, sp := range spec.EndToEnd {
			vs := byMetric[sp.Name]
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			fmt.Printf("  %-12s %-22s n=%-3d %12.4f / %12.4f / %12.4f %-5s spread %6.2f%%  bound %4.0f%%\n",
				w.Name, sp.Name, len(vs), q1, med, q3, sp.Unit, 100*spread(vs), 100*sp.Bound)
		}
	}
}

// compareFiles applies the bounds: for every workload × end-to-end
// metric, is b (the change) no worse than a (the parent)?
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	load := func(path string) (map[string]map[string][]float64, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return endToEndValues(f.Runs), nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	counts := map[string]int{}
	fmt.Printf("%-12s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, sp := range spec.EndToEnd {
			va, vb := a[w.Name][sp.Name], b[w.Name][sp.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(sp, va, vb)
			counts[v]++
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-12s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", w.Name, sp.Name, ma, mb, 100*change, 100*sp.Bound, v)
		}
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %d  ", k, counts[k])
	}
	fmt.Println()
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

// verdict judges one workload × metric. change is how much worse b's
// median is than a's, as a share of a's (negative = better).
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but either side's run-to-run spread is wider
//	            than the bound — unless every run of b beats every run of a
//	ok          otherwise
func verdict(sp metricSpec, a, b []float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := ratio(mb-ma, ma)
	if sp.Better == "higher" {
		change = -change
	}
	if change > sp.Bound {
		return "worse", change
	}
	if spread(a) > sp.Bound || spread(b) > sp.Bound {
		minA, maxA := minMax(a)
		minB, maxB := minMax(b)
		if (sp.Better == "lower" && maxB < minA) || (sp.Better == "higher" && minB > maxA) {
			return "ok", change
		}
		return "unresolved", change
	}
	return "ok", change
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}
