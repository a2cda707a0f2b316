package engine

// Wheel-boundary tests: the timing wheel must keep the reference
// engine's execution order where its two structures meet — delays that
// land inside, on the edge of, and far beyond the window, idle gaps
// longer than the window, horizons that stop mid-window and at its
// edge, and Stop from inside callbacks. White-box checks pin that the
// window follows the clock, so the overflow heap stays the rare path.

import (
	"math/rand"
	"testing"
)

// wheelDelay draws a delay that exercises every route through the
// queue: mostly in-window, often straddling the window edge, sometimes
// up to four windows out (the overflow heap).
func wheelDelay(rng *rand.Rand) Cycle {
	switch rng.Intn(8) {
	case 0:
		return Cycle(rng.Intn(4*wheelSize + 1))
	case 1:
		return wheelSize - 2 + Cycle(rng.Intn(4)) // W-2 .. W+1
	default:
		return Cycle(rng.Intn(128))
	}
}

// TestWheelMatchesReferenceEngine runs randomized rounds on the Engine
// and on the reference loop of queue_test.go and requires identical
// execution traces and clock positions. Each round seeds a cascade of
// nested schedules, sometimes behind an idle gap longer than the
// window, then runs it in windows whose horizons fall mid-window, just
// inside, on and just past the window edge, and far out.
func TestWheelMatchesReferenceEngine(t *testing.T) {
	type rec struct {
		label int
		at    Cycle
	}
	for trial := 0; trial < 40; trial++ {
		run := func(schedule func(Cycle, func()), clock func() Cycle, stop func(), window func(Cycle) Cycle) []rec {
			var trace []rec
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			stopping := true
			var spawn func(label, depth int)
			spawn = func(label, depth int) {
				trace = append(trace, rec{label, clock()})
				if rng.Intn(25) == 0 && stopping {
					stop()
				}
				if depth < 4 {
					n := rng.Intn(4)
					for i := 0; i < n; i++ {
						child := label*10 + i + 1
						schedule(wheelDelay(rng), func() { spawn(child, depth+1) })
					}
				}
			}
			for round := 0; round < 6; round++ {
				gap := Cycle(0)
				if rng.Intn(2) == 0 {
					gap = wheelSize + 1 + Cycle(rng.Intn(3*wheelSize)) // idle gap past the window
				}
				for i := 0; i < 8; i++ {
					label := round*100 + i + 1
					schedule(gap+wheelDelay(rng), func() { spawn(label, 0) })
				}
				for _, off := range []Cycle{wheelSize / 2, wheelSize - 1, wheelSize, wheelSize + 1, 3 * wheelSize} {
					trace = append(trace, rec{label: -1, at: window(clock() + off)})
				}
				trace = append(trace, rec{label: -2, at: window(MaxCycle)})
			}
			// Drain what the last Stop left: the first window consumes
			// a stop still pending, the second runs to exhaustion.
			stopping = false
			trace = append(trace, rec{label: -3, at: window(MaxCycle)}, rec{label: -3, at: window(MaxCycle)})
			return trace
		}

		e := New(0)
		got := run(e.Schedule, e.Now, e.Stop, e.Run)
		r := &refEngine{}
		want := run(r.schedule, func() Cycle { return r.now },
			func() { r.stopped = true }, r.run)

		if len(got) != len(want) {
			t.Fatalf("trial %d: trace lengths differ: engine %d, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: traces diverge at %d: engine %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
		if e.Pending() != 0 || e.queue.wheeled != 0 || e.queue.over.len() != 0 {
			t.Fatalf("trial %d: drained engine still holds %d events (%d wheel, %d overflow)",
				trial, e.Pending(), e.queue.wheeled, e.queue.over.len())
		}
	}
}

// TestWheelFollowsIdleGap pins the stale-window pitfall: after an idle
// gap longer than the window, small-delay pushes must land in the
// wheel, whether the clock crossed the gap by popping an overflow event
// or by a Run horizon.
func TestWheelFollowsIdleGap(t *testing.T) {
	fn := func() {}
	t.Run("overflow pop", func(t *testing.T) {
		e := New(0)
		e.Schedule(3*wheelSize, func() {
			for i := 0; i < 100; i++ {
				e.Schedule(Cycle(i%50), fn)
			}
			if n := e.queue.over.len(); n != 0 {
				t.Errorf("after a %d-cycle gap, %d of 100 small-delay events went to the overflow heap", 3*wheelSize, n)
			}
		})
		if n := e.queue.over.len(); n != 1 {
			t.Fatalf("far event: overflow heap holds %d events, want 1", n)
		}
		e.Drain()
	})
	t.Run("horizon", func(t *testing.T) {
		e := New(0)
		e.Schedule(10*wheelSize, fn)
		e.Run(5 * wheelSize)
		for i := 0; i < 100; i++ {
			e.Schedule(Cycle(i%50), fn)
		}
		if n := e.queue.over.len(); n != 1 {
			t.Fatalf("after a horizon jump, overflow heap holds %d events, want only the far one", n)
		}
		if e.queue.wheeled != 100 {
			t.Fatalf("wheel holds %d events, want 100", e.queue.wheeled)
		}
		e.Drain()
	})
}

// TestWheelZeroesVacatedNodes pins that popped events release their
// handlers: neither a wheel node nor a heap slot keeps one alive.
func TestWheelZeroesVacatedNodes(t *testing.T) {
	e := New(0)
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), func() {})
		e.Schedule(wheelSize+Cycle(i), func() {})
	}
	e.Drain()
	for i, n := range e.queue.nodes {
		if n.ev.h != nil {
			t.Fatalf("pooled node %d still holds a handler after drain", i)
		}
	}
	for i, ev := range e.queue.over.evs[:cap(e.queue.over.evs)] {
		if ev.h != nil {
			t.Fatalf("overflow slot %d still holds a handler after drain", i)
		}
	}
}

// mixDelays is a fixed table of delays drawn from the delay histogram
// of the hmgperf matrix (lstm, MiniAMR and bfs under SW-Hier, NHCC and
// HMG at scale 0.25) on the Table II 4x4 machine, plus a 0.5% tail past
// the window like the one the same matrix has on a 16x8 machine.
var mixDelays = func() []Cycle {
	buckets := []struct {
		permille int
		lo, hi   Cycle
	}{
		{130, 1, 1}, {60, 2, 3}, {80, 4, 7}, {250, 16, 31}, {100, 32, 63},
		{290, 64, 127}, {50, 128, 255}, {35, 256, 1023}, {5, 1024, 2643},
	}
	rng := rand.New(rand.NewSource(1))
	d := make([]Cycle, 1<<16)
	for i := range d {
		p := rng.Intn(1000)
		for _, b := range buckets {
			if p < b.permille {
				d[i] = b.lo + Cycle(rng.Int63n(int64(b.hi-b.lo+1)))
				break
			}
			p -= b.permille
		}
	}
	return d
}()

// mixHandler reschedules itself with the next delay of mixDelays until
// its shared budget runs out.
type mixHandler struct {
	e    *Engine
	next int
	left int
}

func (h *mixHandler) Handle() {
	if h.left > 0 {
		h.left--
		h.e.ScheduleHandler(mixDelays[h.next&(len(mixDelays)-1)], h)
		h.next++
	}
}

// BenchmarkQueueMix measures schedule+dispatch with the simulator's
// queue shape: ~4k pending events whose delays follow the measured
// histogram. One op is one executed event; allocs/op must be 0.
func BenchmarkQueueMix(b *testing.B) {
	const pending = 4096
	e := New(0)
	h := &mixHandler{e: e, left: pending}
	for i := 0; i < pending; i++ {
		h.Handle()
	}
	e.Drain() // warm the queue storage to the pending depth
	h.left = b.N
	for i := 0; i < pending; i++ {
		e.ScheduleHandler(mixDelays[i], h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Drain()
}
