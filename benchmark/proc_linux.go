//go:build linux

package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// setDeathSignal has the kernel kill the child if the harness dies
// without running its cleanup (SIGKILL, panic in another goroutine).
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procCPU is a process's user+system CPU time so far: the on-CPU
// nanoseconds of its threads summed from /proc/<pid>/task/*/schedstat
// where the kernel keeps them, else /proc/<pid>/stat fields 14 and 15,
// which count 10 ms ticks — coarse for a server that is busy 1% of a
// 15 s window.
func procCPU(pid int) (time.Duration, bool) {
	if tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid)); err == nil {
		var sum time.Duration
		ok := len(tasks) > 0
		for _, t := range tasks {
			data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
			f := strings.Fields(string(data))
			if err != nil || len(f) == 0 {
				ok = false
				break
			}
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				ok = false
				break
			}
			sum += time.Duration(ns)
		}
		if ok {
			return sum, true
		}
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return time.Duration(utime+stime) * time.Second / clockTick, true
}

// procPeakRSS is a process's resident-set high-water mark in MB, VmHWM
// of /proc/<pid>/status.
func procPeakRSS(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}

// cpuMask is a sched_setaffinity mask: 1024 CPUs.
type cpuMask [1024 / bits.UintSize]uintptr

func affinity(call uintptr, tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// confine pins every thread of the harness to one CPU — the highest it
// is allowed, away from CPU 0 where a VM's device interrupts land — and
// sets GOMAXPROCS to 1. Children inherit the mask, so a server started
// afterwards sees a one-CPU machine too. Two passes over the thread
// list: a thread an unpinned thread created during the first is caught
// by the second.
func confine() (cpu int, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = -1
	for i, word := range allowed {
		if word != 0 {
			cpu = i*bits.UintSize + bits.Len(uint(word)) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/bits.UintSize] = 1 << (cpu % bits.UintSize)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread may have exited since the listing: ESRCH is fine.
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && !errors.Is(err, syscall.ESRCH) {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
