// Command vgbl-experiments regenerates every figure and table of the
// reproduction (DESIGN.md §4, EXPERIMENTS.md). Run it with experiment ids
// or "all":
//
//	vgbl-experiments all
//	vgbl-experiments f1 f2 e1
//	vgbl-experiments -cohort 200 e6 e7
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	cohort := flag.Int("cohort", 30, "simulated learners per cohort (e6/e7)")
	fleetSize := flag.Int("fleet", 200, "largest learner fleet (e10, e14, e16, e17)")
	watchers := flag.Int("watchers", 1000, "largest classroom watcher cohort (e18)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	runs := map[string]func() (string, error){
		"f1":  experiments.F1,
		"f2":  experiments.F2,
		"e1":  experiments.E1,
		"e2":  experiments.E2,
		"e3":  experiments.E3,
		"e4":  experiments.E4,
		"e5":  experiments.E5,
		"e6":  func() (string, error) { return experiments.E6(*cohort) },
		"e7":  func() (string, error) { return experiments.E7(*cohort) },
		"e8":  experiments.E8,
		"e9":  experiments.E9,
		"e10": func() (string, error) { return experiments.E10(*fleetSize) },
		"e13": experiments.E13,
		"e14": func() (string, error) { return experiments.E14(*fleetSize) },
		"e16": func() (string, error) { return experiments.E16(*fleetSize) },
		"e17": func() (string, error) { return experiments.E17(*fleetSize) },
		"e18": func() (string, error) { return experiments.E18(*watchers) },
		"e19": func() (string, error) { return experiments.E19(nil, 0) },
	}
	order := []string{"f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e13", "e14", "e16", "e17", "e18", "e19"}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: vgbl-experiments [-cohort N] [-fleet N] [-watchers N] all | f1 f2 e1 ... e19")
		os.Exit(2)
	}
	var selected []string
	if len(args) == 1 && args[0] == "all" {
		selected = order
	} else {
		for _, a := range args {
			if runs[a] == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}
	for _, id := range selected {
		out, err := runs[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("================ %s ================\n\n%s\n", id, out)
	}
}
