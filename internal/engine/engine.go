// Package engine implements the discrete-event simulation kernel that
// drives every timing model in this repository.
//
// The kernel is a single-threaded event loop over a timing wheel of
// scheduled callbacks (queue.go). The wheel has one FIFO slot per cycle
// for the next 1024 cycles, which covers nearly every delay the model
// schedules; an event further out waits in a 4-ary min-heap, the
// overflow path. Popping merges the wheel head with the heap top by (cycle,
// sequence number). Components (caches, links, DRAM partitions, SMs)
// never block; they schedule follow-up events at future cycles. Ties at
// the same cycle are broken by insertion order (a monotone sequence
// number), which makes simulations fully deterministic for a given
// input. queue_test.go proves that order against a reference
// container/heap engine, and wheel_test.go proves it again across the
// wheel's window edge and the overflow heap.
//
// Every event is a Handler. Steady-state scheduling is allocation-free:
// the wheel's node pool and the heap's slice are grown once and reused,
// and hot callers can avoid closure allocation entirely by scheduling a
// reusable Handler (see ScheduleHandler) drawn from their own free list.
//
// Cycles are the only unit of time inside a simulation. The Engine knows
// the clock frequency solely so that results can be reported in seconds
// and bandwidths in bytes per second.
package engine

import (
	"fmt"
	"math"
)

// Cycle is a point in simulated time, measured in clock cycles since the
// start of the simulation.
type Cycle uint64

// MaxCycle is the largest representable simulation time. Run uses it as
// the default horizon.
const MaxCycle = Cycle(math.MaxUint64)

// Handler is a reusable scheduled callback. Hot paths that would
// otherwise allocate a fresh closure per scheduled hop implement Handle
// on a pooled context struct and pass it to ScheduleHandler: a pointer
// in an interface value schedules without any heap allocation.
type Handler interface {
	Handle()
}

// funcHandler adapts a closure passed to Schedule to Handler. A func
// value is pointer-shaped, so storing one in the interface does not
// allocate.
type funcHandler func()

func (f funcHandler) Handle() { f() }

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now     Cycle
	seq     uint64
	queue   eventQueue
	freqHz  float64
	stopped bool

	// Executed counts events that have run, for speed reporting.
	Executed uint64
}

// DefaultFrequencyHz is the 1.3 GHz GPU clock from Table II of the paper.
const DefaultFrequencyHz = 1.3e9

// New returns an Engine with the given clock frequency in Hz. A
// non-positive frequency falls back to DefaultFrequencyHz.
func New(freqHz float64) *Engine {
	if freqHz <= 0 {
		freqHz = DefaultFrequencyHz
	}
	return &Engine{freqHz: freqHz}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// FrequencyHz returns the simulated clock frequency.
func (e *Engine) FrequencyHz() float64 { return e.freqHz }

// Seconds converts a cycle count to wall-clock seconds at the simulated
// frequency.
func (e *Engine) Seconds(c Cycle) float64 { return float64(c) / e.freqHz }

// Cycles converts a duration in seconds to a whole number of cycles,
// rounding up so that a non-zero duration never becomes zero cycles.
func (e *Engine) Cycles(seconds float64) Cycle {
	if seconds <= 0 {
		return 0
	}
	return Cycle(math.Ceil(seconds * e.freqHz))
}

// Schedule runs fn after delay cycles. A zero delay runs fn later in the
// current cycle, after all previously scheduled work for this cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if fn == nil {
		panic("engine: Schedule called with nil callback")
	}
	e.ScheduleHandler(delay, funcHandler(fn))
}

// ScheduleHandler runs h.Handle() after delay cycles, with the same
// ordering semantics as Schedule. Scheduling a pooled pointer context
// costs no allocation (unlike building a fresh closure for Schedule),
// which makes it the scheduling path for per-hop continuations in the
// simulator core.
func (e *Engine) ScheduleHandler(delay Cycle, h Handler) {
	if h == nil {
		panic("engine: ScheduleHandler called with nil handler")
	}
	e.seq++
	e.queue.push(event{at: e.deadline(delay), seq: e.seq, h: h})
}

// deadline converts a delay to an absolute cycle, panicking on overflow.
func (e *Engine) deadline(delay Cycle) Cycle {
	at := e.now + delay
	if at < e.now {
		panic(fmt.Sprintf("engine: schedule overflow at cycle %d + %d", e.now, delay))
	}
	return at
}

// ScheduleAt runs fn at the absolute cycle at, which must not be in the
// past.
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("engine: ScheduleAt(%d) in the past (now %d)", at, e.now))
	}
	e.Schedule(at-e.now, fn)
}

// ScheduleHandlerAt runs h.Handle() at the absolute cycle at, which must
// not be in the past.
func (e *Engine) ScheduleHandlerAt(at Cycle, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("engine: ScheduleHandlerAt(%d) in the past (now %d)", at, e.now))
	}
	e.ScheduleHandler(at-e.now, h)
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.len() }

// Stop makes the engine's Run loop return after the in-flight event
// completes. Stop is sticky until observed: if no Run is in flight, the
// next Run call returns immediately without executing anything. The Run
// call that observes the stop consumes it, so subsequent Run calls
// resume normally.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains, Stop is
// observed, or the next event would be after horizon. It returns the
// simulation time at exit:
//
//   - horizon exit: now has advanced to horizon (idle tail included), so
//     callers deriving elapsed time from the return value see the whole
//     window they asked for;
//   - queue drained: now is the time of the last executed event — no
//     further work exists, so simulated time stops with it (Drain
//     depends on this: a MaxCycle horizon must not teleport the clock);
//   - Stop observed: now is the time of the stopping event (or unchanged
//     for a stop pending at entry), and the stop is consumed.
func (e *Engine) Run(horizon Cycle) Cycle {
	for !e.stopped {
		if e.queue.len() == 0 {
			return e.now
		}
		if e.queue.peek().at > horizon {
			if horizon > e.now {
				e.now = horizon
				// Every pending event is after horizon, so the wheel's
				// window can follow the clock across the idle tail.
				e.queue.advance(horizon)
			}
			return e.now
		}
		ev := e.queue.pop()
		e.now = ev.at
		e.Executed++
		ev.h.Handle()
	}
	e.stopped = false // the stop is consumed by the Run that observed it
	return e.now
}

// Drain runs the queue to exhaustion with no horizon.
func (e *Engine) Drain() Cycle { return e.Run(MaxCycle) }
