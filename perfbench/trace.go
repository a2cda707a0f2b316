package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: its name, interval, parent span, and the allocation and GC
// deltas the call caused.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"alloc_bytes"`
	NumGC   uint32 `json:"gc_cycles"`
}

// tracer times calls into layers. Every call is timed; only a traced
// run also keeps spans and reads runtime.MemStats around them, so the
// untraced runs that yield the end-to-end metrics pay nothing for the
// bookkeeping. Spans stay in memory until the run writes them out.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs fn as a span named name and returns the span, whose
// allocation and GC fields are filled only when tracing.
func (t *tracer) do(name string, fn func() error) (span, error) {
	s := span{Name: name, Parent: -1}
	if !t.on {
		start := time.Now()
		err := fn()
		end := time.Now()
		s.StartNS, s.EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
		return s, err
	}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, id)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	runtime.ReadMemStats(&after)
	s.StartNS, s.EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.Mallocs = after.Mallocs - before.Mallocs
	s.Bytes = after.TotalAlloc - before.TotalAlloc
	s.NumGC = after.NumGC - before.NumGC
	t.spans[id] = s
	return s, err
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// heapSampler tracks the peak of Go heap in use (live objects and
// garbage not yet swept) by polling runtime/metrics, which reads
// without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is short against a GC cycle of these workloads (tens
// of milliseconds), so the sampled maximum lands near the true peak.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// takeMB returns the peak in MiB since the last take and starts a new
// window.
func (h *heapSampler) takeMB() float64 {
	h.sample()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.done.Wait()
}
