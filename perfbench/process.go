package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// processSample is the process-wide cost counters at one instant.
type processSample struct {
	cpu     time.Duration // user + system CPU since process start
	alloc   uint64        // bytes allocated since process start
	gcs     uint32
	gcPause time.Duration
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid pointer cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// peakSampler polls the live heap and the goroutine count. It keeps
// the goroutine maximum and the heap maximum of every heapSlice of
// the window. It reads runtime/metrics, which does not stop the world,
// so polling costs the measured program almost nothing.
type peakSampler struct {
	stopc  chan struct{}
	done   chan struct{}
	slices []uint64 // heap peak of each finished slice
	heap   uint64   // heap peak of the current slice
	gor    uint64
}

const (
	peakInterval = 20 * time.Millisecond
	// heapSlice is the span over which one heap peak is taken. The
	// window's peak is the median of its slices' peaks: the largest
	// heap a garbage-collection cycle reaches, without the one cycle
	// whose pacing happened to overshoot.
	heapSlice = time.Second
)

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *peakSampler) loop() {
	defer close(p.done)
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	t := time.NewTicker(peakInterval)
	defer t.Stop()
	sliceEnd := time.Now().Add(heapSlice)
	for {
		metrics.Read(s)
		if now := time.Now(); now.After(sliceEnd) {
			p.slices = append(p.slices, p.heap)
			p.heap = 0
			sliceEnd = now.Add(heapSlice)
		}
		p.heap = max(p.heap, s[0].Value.Uint64())
		p.gor = max(p.gor, s[1].Value.Uint64())
		select {
		case <-p.stopc:
			return
		case <-t.C:
		}
	}
}

// stop ends the polling and returns the median slice heap peak in
// bytes (the partial last slice's peak when no slice finished) and the
// goroutine peak.
func (p *peakSampler) stop() (heap float64, goroutines uint64) {
	close(p.stopc)
	<-p.done
	if len(p.slices) == 0 {
		return float64(p.heap), p.gor
	}
	peaks := make([]float64, len(p.slices))
	for i, h := range p.slices {
		peaks[i] = float64(h)
	}
	return median(peaks), p.gor
}
