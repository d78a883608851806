package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set.
type cpuMask [16]uint64

// rotateCPUs, in a process at one P, moves every thread of the process
// to the next CPU it may run on every period until stop is closed, then
// gives the threads back the CPUs they had. At one P an op runs on one
// thread at a time, and the kernel keeps that thread on one CPU for long
// stretches. On a shared host the CPUs of a small VM differ in speed, by
// a sixth between the two CPUs of the box these numbers come from, and
// by different amounts from minute to minute; without the rotation a run
// measures whichever CPU it landed on.
func rotateCPUs(period time.Duration, stop <-chan struct{}) {
	var all cpuMask
	if runtime.GOMAXPROCS(0) != 1 || !getAffinity(&all) {
		return
	}
	var cpus []int
	for w, m := range all {
		for ; m != 0; m &= m - 1 {
			cpus = append(cpus, 64*w+bits.TrailingZeros64(m))
		}
	}
	if len(cpus) < 2 {
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for i := 0; ; i = (i + 1) % len(cpus) {
		var one cpuMask
		one[cpus[i]/64] = 1 << (cpus[i] % 64)
		setAffinity(&one)
		select {
		case <-t.C:
		case <-stop:
			setAffinity(&all)
			return
		}
	}
}

// getAffinity reads the calling thread's CPU set, which every thread of
// the process inherits.
func getAffinity(m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// setAffinity sets the CPU set of every thread of the process.
func setAffinity(m *cpuMask) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
		}
	}
}
