package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the whole process's allocation count and CPU time. Both
// include the load generator, which is kept allocation-free and is the same
// code on every commit.
type procSnap struct {
	mallocs uint64
	cpu     time.Duration
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// The error is dropped: RUSAGE_SELF cannot fail, and a zero CPU time
	// would show in cpu_us_per_op at once.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{mallocs: ms.Mallocs, cpu: cpu}
}

// liveHeapMiB collects twice — the second pass empties the sync.Pool victim
// caches the first one filled — and returns the bytes still reachable. It is
// HeapAlloc rather than HeapInuse: span fragmentation moved a 5 MiB heap by
// a third from run to run.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
