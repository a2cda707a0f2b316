package gsim

// The write-back L2 design option of Section IV. Plain (.cta-or-weaker)
// stores that hit in the GPM-local L2 slice dirty it instead of writing
// through. Dirty data flushes to the home hierarchy:
//
//   - on release operations and kernel boundaries ("release operations
//     trigger a writeback of all dirty data to the respective home
//     nodes"),
//   - on acquire-driven bulk invalidations under software coherence (the
//     data would otherwise be lost with the flash-clear),
//   - on dirty-line evictions, using the WriteBack message.
//
// The paper notes the issuing GPM of a WriteBack "need not be tracked as
// a sharer going forward". That holds only for an eviction: a release or
// kernel-boundary flush clears the dirty bit and leaves the line valid in
// the writer's slice, so the homes keep the writer as a sharer. A
// conservative sharer costs at most one extra invalidation; a dropped one
// would leave a cached copy the directory can no longer invalidate.
//
// Synchronizing stores always write through, preserving forward
// progress. A flush takes the same walk to the homes as a write-through
// store (routeWrite in access.go), carrying the whole line; it is
// tracked by the issuing SM's store gates, so releases and kernel
// barriers wait for it exactly as they wait for write-throughs.

import (
	"hmg/internal/cache"
	"hmg/internal/msg"
	"hmg/internal/topo"
)

// tryWriteBackHit attempts to absorb a plain store into the local L2
// slice. It returns true when absorbed; the caller then releases the
// store's gates (the flush mechanism takes over the visibility
// obligation).
func (s *System) tryWriteBackHit(g topo.GPMID, line topo.Line, word uint16, val uint64) bool {
	e, hit := s.gpmOf(g).L2.Lookup(line)
	if !hit {
		return false
	}
	//lint:allow eventemit absorption is covered by the caller's EvStoreIssue; the flush path emits the home-side events
	e.Dirty = true
	if s.Cfg.TrackValues {
		//lint:allow eventemit same absorption; the value surfaces via EvHomeStore when the dirty line flushes
		e.SetValue(word, val)
	}
	return true
}

// flushDirtySlice writes every dirty line of one GPM's L2 slice back to
// its home hierarchy, charging the given SM's store gates. It returns
// the number of lines flushed.
//
//lint:allow hotalloc flush continuation; release/kernel-boundary work, not steady state
func (s *System) flushDirtySlice(g topo.GPMID, sm *SM) int {
	return s.gpmOf(g).L2.FlushDirty(func(e cache.Entry) {
		s.writeBackLine(g, sm, e.Line, e.Data)
	})
}

// flushAllDirty flushes every GPM's dirty lines, charging each GPM's
// first SM — the implicit .sys release of a kernel boundary.
func (s *System) flushAllDirty() {
	if !s.Cfg.WriteBack {
		return
	}
	for _, g := range s.GPMs {
		sm := s.SMs[s.Cfg.Topo.SM(g.id, 0)]
		s.flushDirtySlice(g.id, sm)
	}
}

// writeBackLine sends one dirty line toward its home nodes along the
// write walk (routeWrite), carrying a snapshot of the line's data whole
// in a WriteBack message.
//
//lint:allow hotalloc write-back data snapshot; budget gated by the hmgperf allocs/event baseline
func (s *System) writeBackLine(g topo.GPMID, sm *SM, line topo.Line, data fillData) {
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	var snapshot fillData
	if s.Cfg.TrackValues {
		snapshot = make(fillData, len(data))
		//lint:allow determinism word-keyed map copy; every word is written to a distinct key, so order cannot matter
		for w, v := range data {
			snapshot[w] = v
		}
	}
	s.routeWrite(g, write{kind: msg.WriteBack, sm: sm, line: line, data: snapshot})
}
