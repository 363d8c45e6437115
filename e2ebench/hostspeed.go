package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The benchmark runs on a few cores of a shared host whose
// speed, seen from inside, drifts by tens of percent over minutes as other
// tenants contend for the cores, caches and memory bandwidth. A run is far
// too short to average that out, and the drift moves whole runs, not single
// passes. So every time the benchmark reports as an end-to-end metric is
// scaled to a nominal host speed: a fixed reference job runs between the
// measured operations, and an operation that took t seconds while the job
// took r seconds (the mean of its runs just before and just after the
// operation) counts as t × refNominal / r. The job is the benchmark's own
// code, not the program's, so a change to the program moves the scaled
// times exactly as it moves the raw ones; the raw times are printed too.
//
// The job is two goroutines, each sorting 1 Mi pseudo-random 64-bit keys
// (8 MiB): it keeps both cores of the 2-core host busy, as the measured
// passes do, and it is as sensitive to cache and memory contention. Its
// keys live outside the Go heap, so it changes neither the program's
// garbage-collection pacing nor, after subtracting its fixed size, the
// reported peak RSS.
const (
	probeKeys = 1 << 20 // keys per goroutine
	// probeBytes is the job's resident memory, mapped once per process.
	probeBytes = 2 * probeKeys * 8
	// refNominal is the job's time, in seconds, on the idle 2-core Xeon
	// host the bounds were measured on.
	refNominal = 0.165
	// probeEvery is how much measuring may pass between two runs of the
	// job; short passes share the runs around their group.
	probeEvery = 500 * time.Millisecond
)

// hostProbe is the reference job.
type hostProbe struct {
	mem  []byte
	keys [2][]uint64
}

// host is the process's reference job, set up by run before a workload.
var host *hostProbe

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("map reference job memory: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), 2*probeKeys)
	p := &hostProbe{mem: mem, keys: [2][]uint64{all[:probeKeys], all[probeKeys:]}}
	p.run() // warm-up: faults the pages in and settles the code path
	return p, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// run fills the keys, always with the same values, and returns the time
// the two goroutines take to sort them. It collects garbage first, so that
// no background mark work of the operation before competes with the job.
func (p *hostProbe) run() float64 {
	runtime.GC()
	for g, keys := range p.keys {
		x := uint64(0x9e3779b97f4a7c15) + uint64(g)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, keys := range p.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices.Sort(keys)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// bracket scales operation times by the reference job's runs around them.
type bracket struct {
	p      *hostProbe
	before float64   // the job's time just before the pending operations
	at     time.Time // when that run ended
	ref    []float64 // every run of the job, for the log
}

func (p *hostProbe) bracket() *bracket {
	r := p.run()
	return &bracket{p: p, before: r, at: time.Now(), ref: []float64{r}}
}

// due reports whether probeEvery has passed since the job last ran.
func (b *bracket) due() bool { return time.Since(b.at) >= probeEvery }

// close runs the job again and returns the factor that scales the times
// measured since its previous run to the nominal host speed.
func (b *bracket) close() float64 {
	after := b.p.run()
	f := refNominal / ((b.before + after) / 2)
	b.before, b.at = after, time.Now()
	b.ref = append(b.ref, after)
	return f
}
