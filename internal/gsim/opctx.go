package gsim

// Pooled per-hop continuation contexts.
//
// opCtx carries the hot per-hop continuations of the memory hierarchy
// as one reusable value drawn from a per-System free list: the caller
// fills in the fields its stage needs, schedules the context through
// the engine's allocation-free ScheduleHandler path, and Handle
// dispatches on the stage tag. The stages, by walk:
//
//   - loads: stageLoadValue (an L1 hit's value), stageLoadMiss (the
//     SM-side L1 miss), stageRequesterProbe (the requester's own L2
//     slice), stageGPUHomeLoad and stageSysHomeLoad (the home lookups);
//   - writes: stageStartStore (the SM-side leg after the L1),
//     stageStoreWB (absorption under the write-back option), then one
//     walk shared by write-through stores and write-backs:
//     stageGPUHomeWrite and stageSysHomeWrite apply a write value (see
//     write in access.go) at each home;
//   - warps: stageOpDone (a posted op retires) and stageWarpWake (a
//     timed re-issue).
//
// Pooling invariant: Handle copies every field it needs into locals and
// releases the context *before* running the stage body. Stage bodies may
// allocate fresh contexts (reusing this very one), and any closure a
// body creates captures those locals — never the pooled struct — so a
// context is only ever live between its Schedule and its dispatch.
// Contexts never cross that boundary, which is what makes the pool safe
// without reference counting.
//
// Event sequence numbers — and therefore cycle-level results — depend
// on the order in which stages schedule: each stage is one event at a
// fixed latency and a fixed point of its walk, so moving a schedule
// changes the model even when the work is the same.

import (
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// ctxStage discriminates which continuation a pooled opCtx carries.
type ctxStage uint8

const (
	stageNone ctxStage = iota
	// stageLoadValue delivers a resolved load value: done(v).
	stageLoadValue
	// stageLoadMiss runs the SM-side L1-miss continuation of startLoad.
	stageLoadMiss
	// stageOpDone retires a posted op at its warp: w.opDone().
	stageOpDone
	// stageWarpWake clears a warp's timed-wakeup flag and re-issues.
	stageWarpWake
	// stageSysHomeLoad runs the system-home L2 lookup of a load.
	stageSysHomeLoad
	// stageGPUHomeLoad runs the GPU-home L2 lookup of a load.
	stageGPUHomeLoad
	// stageRequesterProbe runs the requester-side local L2 probe of a
	// load before it escalates to the home hierarchy.
	stageRequesterProbe
	// stageSysHomeWrite applies a write (store or write-back) at the
	// system home.
	stageSysHomeWrite
	// stageGPUHomeWrite applies a write at a GPU home node.
	stageGPUHomeWrite
	// stageStartStore runs the SM-side post-L1 leg of a store.
	stageStartStore
	// stageStoreWB runs the write-back-option L2 leg of a store: absorb
	// the store into a dirty local slice hit, or fall through to the
	// write-through path.
	stageStoreWB
)

// opCtx is the pooled continuation context. It is a union: each stage
// reads only the fields its site filled in. Fields are reset on release
// so the pool never pins caches, closures, or fill maps.
type opCtx struct {
	s     *System
	stage ctxStage

	sm   *SM
	w    *warpCtx
	g    topo.GPMID // home (or acting) GPM of the stage
	from topo.GPMID // requesting GPM, for home-side stages
	op   trace.Op
	line topo.Line
	word uint16
	flag bool // l1OK for loads; local for system-home writes
	req  proto.Requester
	v    uint64
	wr   write // the write a home-side write stage applies

	done  func(uint64)
	reply func(fillData)
	next  func()
}

// newCtx draws a context from the free list (or allocates one while the
// pool warms up) and tags it with a stage.
//
//lint:allow hotalloc pool warm-up allocation; steady state draws from the free list
func (s *System) newCtx(stage ctxStage) *opCtx {
	n := len(s.ctxFree)
	if n == 0 {
		return &opCtx{s: s, stage: stage}
	}
	c := s.ctxFree[n-1]
	s.ctxFree[n-1] = nil
	s.ctxFree = s.ctxFree[:n-1]
	c.stage = stage
	return c
}

// release zeroes the context and returns it to the free list.
//
//lint:allow hotalloc free-list append; growth is amortized across the pool's lifetime
func (c *opCtx) release() {
	s := c.s
	*c = opCtx{s: s}
	s.ctxFree = append(s.ctxFree, c)
}

// Handle dispatches the continuation. Per the pooling invariant, every
// arm copies its fields into locals and releases the context before
// running the stage body.
func (c *opCtx) Handle() {
	switch c.stage {
	case stageLoadValue:
		done, v := c.done, c.v
		c.release()
		done(v)
	case stageLoadMiss:
		sm, op, line, word, l1OK, done := c.sm, c.op, c.line, c.word, c.flag, c.done
		c.release()
		sm.loadAfterL1Miss(op, line, word, l1OK, done)
	case stageOpDone:
		w := c.w
		c.release()
		w.opDone()
	case stageWarpWake:
		w := c.w
		c.release()
		w.wakeup = false
		w.tryIssue()
	case stageSysHomeLoad:
		s, sh, line, reply := c.s, c.g, c.line, c.reply
		c.release()
		s.sysHomeLoadAtL2(sh, line, reply)
	case stageGPUHomeLoad:
		s, h, op, line, reply := c.s, c.g, c.op, c.line, c.reply
		c.release()
		s.gpuHomeLoadAtL2(h, op, line, reply)
	case stageRequesterProbe:
		s, g, line, reply, next := c.s, c.g, c.line, c.reply, c.next
		c.release()
		if e, hit := s.gpmOf(g).L2.Lookup(line); hit {
			reply(e.Data)
			return
		}
		next()
	case stageSysHomeWrite:
		s, sh, req, local, w := c.s, c.g, c.req, c.flag, c.wr
		c.release()
		s.sysHomeWriteAtL2(sh, req, local, w)
	case stageGPUHomeWrite:
		s, h, from, w := c.s, c.g, c.from, c.wr
		c.release()
		s.gpuHomeWriteAtL2(h, from, w)
	case stageStartStore:
		sm, op, line, word := c.sm, c.op, c.line, c.word
		c.release()
		sm.storeAfterL1(op, line, word)
	case stageStoreWB:
		sm, op, line, word := c.sm, c.op, c.line, c.word
		c.release()
		s := sm.sys
		if s.tryWriteBackHit(sm.gpm, line, word, op.Val) {
			sm.gpuHomeGate.Finish()
			sm.sysHomeGate.Finish()
			return
		}
		s.routeWrite(sm.gpm, write{kind: msg.StoreReq, sm: sm, line: line, op: op, word: word})
	default:
		panic("gsim: opCtx dispatched with no stage")
	}
}
