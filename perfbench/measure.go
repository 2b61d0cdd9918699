package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's own cost counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // process user + system CPU, all threads
	allocs     uint64        // heap objects allocated since start
	allocBytes uint64
	gcCPU      float64 // runtime's estimate of CPU seconds spent in GC
	totalCPU   float64 // runtime's estimate of all CPU seconds available
	gcCycles   uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		gcCycles:   s[4].Value.Uint64(),
	}
}

// cost is what one measured phase spent.
type cost struct {
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCPUFrac  float64
	gcCycles   uint64
}

func costSince(from usage) cost {
	to := readUsage()
	c := cost{
		wall:       to.wall.Sub(from.wall),
		cpu:        to.cpu - from.cpu,
		allocs:     to.allocs - from.allocs,
		allocBytes: to.allocBytes - from.allocBytes,
		gcCycles:   to.gcCycles - from.gcCycles,
	}
	if d := to.totalCPU - from.totalCPU; d > 0 {
		c.gcCPUFrac = (to.gcCPU - from.gcCPU) / d
	}
	return c
}

// liveHeapMB forces a collection and returns the live heap in MB; keep
// holds the measured program's state alive across the collection.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
