//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

// Off Linux there is no /proc: the CPU and memory metrics are omitted
// and the run says so.

func setDeathSignal(*exec.Cmd) {}

func procCPU(int) (time.Duration, bool) { return 0, false }

func procPeakRSS(int) (float64, bool) { return 0, false }

func selfCPU() (time.Duration, bool) { return 0, false }

func confine() (int, error) { return 0, errors.New("no sched_setaffinity on this platform") }
