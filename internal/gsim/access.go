package gsim

import (
	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Message kind aliases used by the SM layer.
const (
	relFenceKind = msg.RelFence
	relAckKind   = msg.RelAck
)

// fillData is the sparse word-value payload of a load response. It is
// nil when value tracking is off. Receivers only read it.
type fillData map[uint16]uint64

// valOf extracts one word's value from response data (0 for untracked
// words and nil data, matching never-written memory).
func valOf(fill fillData, word uint16) uint64 { return fill[word] }

// cacheableAt reports whether the policy allows caches on GPM g to hold
// line l (NoRemoteCache forbids caching lines owned by other GPUs).
func (s *System) cacheableAt(g topo.GPMID, l topo.Line) bool {
	if s.Cfg.Policy.Classify && g != s.Pages.SysHome(l) && s.classOf(l) == classReadWrite {
		// CARVE: read-write shared regions are never cached remotely.
		return false
	}
	if s.Cfg.Policy.CacheRemoteGPU {
		return true
	}
	return s.Cfg.Topo.GPUOf(s.Pages.SysHome(l)) == s.Cfg.Topo.GPUOf(g)
}

// effScope returns the scope the datapath enforces: Ideal ignores scope
// bypass entirely (loads may hit anywhere).
func (s *System) effScope(sc trace.Scope) trace.Scope {
	if s.Cfg.Policy.NoCoherence {
		return trace.ScopeNone
	}
	return sc
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

// startLoad begins a load at the SM: L1 first (when the scope permits),
// then the L2 hierarchy. done receives the loaded word value.
func (sm *SM) startLoad(op trace.Op, isAcq bool, done func(uint64)) {
	s := sm.sys
	line := s.Cfg.Topo.LineOf(op.Addr)
	word := cache.WordOf(op.Addr, s.Cfg.Topo.LineSize)
	scope := s.effScope(op.Scope)
	l1OK := scope <= trace.ScopeCTA && s.cacheableAt(sm.gpm, line)
	if l1OK {
		if e, hit := sm.L1.Lookup(line); hit {
			v, _ := e.Value(word)
			c := s.newCtx(stageLoadValue)
			c.done, c.v = done, v
			s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
			return
		}
	}
	c := s.newCtx(stageLoadMiss)
	c.sm, c.op, c.line, c.word, c.flag, c.done = sm, op, line, word, l1OK, done
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// loadAfterL1Miss is the SM-side continuation of startLoad one L1
// latency after issue: route the load into the L2 hierarchy and install
// the response in the L1 when the scope permitted an L1 lookup.
//
//lint:allow hotalloc per-op reply continuation; budget gated by the hmgperf allocs/event baseline
func (sm *SM) loadAfterL1Miss(op trace.Op, line topo.Line, word uint16, l1OK bool, done func(uint64)) {
	s := sm.sys
	s.requesterL2Load(sm, op, line, func(fill fillData) {
		if l1OK {
			e, _ := sm.L1.Fill(line)
			if s.Cfg.TrackValues {
				e.MergeFrom(fill)
			}
		}
		done(valOf(fill, word))
	})
}

// requesterL2Load handles a load at the requesting GPM's L2 slice and
// routes misses up the home hierarchy. reply receives the response line
// data once it has been installed in this GPM's L2 (when permitted).
//
//lint:allow hotalloc per-op reply/forward continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) requesterL2Load(sm *SM, op trace.Op, line topo.Line, reply func(fillData)) {
	g := sm.gpm
	scope := s.effScope(op.Scope)
	sysHome := s.Pages.SysHome(line)
	hier := s.Cfg.Policy.Hierarchical
	gpuHome := sysHome
	if hier {
		gpuHome = s.Pages.GPUHome(sm.gpu, line)
	}
	cacheable := s.cacheableAt(g, line)
	// The requester may fill its own L2 with the response for loads of
	// .gpm scope or weaker (the GPM-local slice is the .gpm coherence
	// point) on cacheable lines.
	fillHere := scope <= trace.ScopeGPM && cacheable

	if g == sysHome {
		// Local load at the system home: Table I takes no action.
		s.sysHomeLoad(g, proto.GPMRequester(int(g)), false, line, reply)
		return
	}
	if hier && g == gpuHome && gpuHome != sysHome && scope <= trace.ScopeGPU {
		// This GPM is the GPU home node for the line.
		s.gpuHomeLoad(g, g, op, line, reply)
		return
	}
	proceed := func() {
		if scope == trace.ScopeSys || !hier || gpuHome == sysHome {
			// Route directly to the system home. Track the requester only
			// if it will cache the response.
			track := fillHere && s.Cfg.Policy.Hardware
			s.fetchLine(g, sysHome, op, line, s.flatRequester(g, sysHome), track, fillHere, reply)
			return
		}
		// Hierarchical: route via the GPU home node.
		s.fetchLine(g, gpuHome, op, line, proto.Requester{}, false, fillHere, reply)
	}
	if fillHere {
		// Probe the local slice before going out.
		c := s.newCtx(stageRequesterProbe)
		c.g, c.line, c.reply, c.next = g, line, reply, proceed
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	proceed()
}

// fetchLine is one remote fetch round from GPM g to home h: a LoadReq
// out, the home's load stage, and a DataResp back that fills g's slice
// (when fill is set) before reply sees the data. A home other than the
// line's system home is a GPU home, which records g itself; the system
// home records req when track is set. A round that fills g's slice
// merges with concurrent misses in g's MSHRs.
//
//lint:allow hotalloc per-round request/response continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) fetchLine(g, h topo.GPMID, op trace.Op, line topo.Line, req proto.Requester, track, fill bool, reply func(fillData)) {
	round := func(done func(fillData)) {
		s.send(g, h, msg.LoadReq, func() {
			back := func(data fillData) {
				s.send(h, g, msg.DataResp, func() {
					s.fillL2(g, line, data, fill)
					done(data)
				})
			}
			if h != s.Pages.SysHome(line) {
				s.gpuHomeLoad(h, g, op, line, back)
				return
			}
			s.sysHomeLoad(h, req, track, line, back)
		})
	}
	if fill {
		s.gpmOf(g).fetch(fetchKey{line, h}, reply, round)
		return
	}
	round(reply)
}

// flatRequester encodes the requester for a system-home directory under
// flat protocols (global GPM id) or, under HMG, for a requester inside
// the owner GPU (local module index) or outside it (GPU id).
func (s *System) flatRequester(g, sysHome topo.GPMID) proto.Requester {
	if !s.Cfg.Policy.Hierarchical {
		return proto.GPMRequester(int(g))
	}
	if s.Cfg.Topo.SameGPU(g, sysHome) {
		return proto.GPMRequester(s.Cfg.Topo.LocalOf(g))
	}
	return proto.GPURequester(int(s.Cfg.Topo.GPUOf(g)))
}

// gpuHomeLoad handles a load at a GPU home node that is not the system
// home (hierarchical policies only). fromGPM is the requesting module of
// the same GPU (possibly the home itself). Concurrent misses merge in
// the home's MSHRs; each still records its requester in the directory at
// request arrival.
func (s *System) gpuHomeLoad(h, fromGPM topo.GPMID, op trace.Op, line topo.Line, reply func(fillData)) {
	gpm := s.gpmOf(h)
	// Record the requesting GPM at request time; the system home will
	// only ever learn the GPU.
	if gpm.Dir != nil && fromGPM != h {
		evR, evT := gpm.Dir.RemoteLoad(line, proto.GPMRequester(s.Cfg.Topo.LocalOf(fromGPM)))
		s.sendInvs(gpm, evR, evT)
	}
	c := s.newCtx(stageGPUHomeLoad)
	c.g, c.op, c.line, c.reply = h, op, line, reply
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// gpuHomeLoadAtL2 is the GPU-home continuation of gpuHomeLoad one L2
// latency after request arrival: home L2 lookup, then a merged fetch
// from the system home on a miss. The fetch carries only the GPU id; the
// GPU home caches the response on behalf of its whole GPU.
func (s *System) gpuHomeLoadAtL2(h topo.GPMID, op trace.Op, line topo.Line, reply func(fillData)) {
	gpm := s.gpmOf(h)
	if s.effScope(op.Scope) <= trace.ScopeGPU {
		if e, hit := gpm.L2.Lookup(line); hit {
			reply(e.Data)
			return
		}
	}
	s.fetchLine(h, s.Pages.SysHome(line), op, line, proto.GPURequester(int(gpm.gpu)), true, true, reply)
}

// sysHomeLoad handles a load at the system home node: hit in the home L2
// or fetch from the local DRAM partition. When track is set the
// requester is recorded as a sharer (Table I remote load).
//
//lint:allow hotalloc MCA reply continuation; budget gated by the hmgperf allocs/event baseline
func (s *System) sysHomeLoad(sh topo.GPMID, req proto.Requester, track bool, line topo.Line, reply func(fillData)) {
	if s.Cfg.Policy.MCA {
		// Multi-copy-atomicity: reads of a line with a store awaiting
		// invalidation acknowledgments must wait behind it.
		gpm := s.gpmOf(sh)
		gpm.lockLine(line, func() {
			gpm.unlockLine(line)
			s.sysHomeLoadUnlocked(sh, req, track, line, reply)
		})
		return
	}
	s.sysHomeLoadUnlocked(sh, req, track, line, reply)
}

func (s *System) sysHomeLoadUnlocked(sh topo.GPMID, req proto.Requester, track bool, line topo.Line, reply func(fillData)) {
	gpm := s.gpmOf(sh)
	if gpm.Dir != nil && track {
		evR, evT := gpm.Dir.RemoteLoad(line, req)
		s.sendInvs(gpm, evR, evT)
	}
	if gpm.classes != nil && !req.IsGPU {
		s.classifyLoad(gpm, line, topo.GPMID(req.ID))
	}
	c := s.newCtx(stageSysHomeLoad)
	c.g, c.line, c.reply = sh, line, reply
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// sysHomeLoadAtL2 is the system-home continuation of a load one L2
// latency after request arrival: home L2 lookup, then a DRAM fill on a
// miss.
func (s *System) sysHomeLoadAtL2(sh topo.GPMID, line topo.Line, reply func(fillData)) {
	gpm := s.gpmOf(sh)
	if e, hit := gpm.L2.Lookup(line); hit {
		reply(e.Data)
		return
	}
	s.dramFill(gpm, line, reply)
}

// dramFill serves a system-home L2 miss from the home's DRAM partition:
// concurrent misses merge in the home's MSHRs, the line is installed in
// the home slice, and reply sees the installed data.
//
//lint:allow hotalloc DRAM read/fill continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) dramFill(gpm *GPM, line topo.Line, reply func(fillData)) {
	gpm.fetch(fetchKey{line, gpm.id}, reply, func(done func(fillData)) {
		gpm.DRAM.Read(line, func() {
			var fill fillData
			if s.Cfg.TrackValues {
				fill = gpm.DRAM.LineValues(line)
			}
			//lint:allow eventemit home slice refilling its own line from DRAM; the requester-side fill emits EvFill when the reply lands
			e, _ := gpm.L2.Fill(line)
			//lint:allow eventemit same home refill; the value surfaces via the requester's EvLoadDone or EvAtomicApply
			e.MergeFrom(fill)
			done(e.Data)
		})
	})
}

// fillL2 installs a load response into an L2 slice when allowed. Under
// the optional Downgrade optimization (Section IV, off by default and in
// the paper's evaluation), a displaced clean remote line notifies its
// home so the sharer can be dropped before it costs an invalidation.
func (s *System) fillL2(g topo.GPMID, line topo.Line, fill fillData, allowed bool) {
	if !allowed || s.gpmOf(g).poisoned[line] {
		// A poisoned fill was overtaken by an invalidation or store
		// while in flight: serve the waiters but do not cache it.
		return
	}
	e, victim := s.gpmOf(g).L2.Fill(line)
	if s.Cfg.TrackValues {
		e.MergeFrom(fill)
	}
	s.emit(Event{Kind: EvFill, GPM: g, SM: NoSM, Line: line})
	if victim != nil {
		s.emit(Event{Kind: EvL2Evict, GPM: g, SM: NoSM, Line: victim.Line})
	}
	switch {
	case victim == nil:
	case victim.Dirty && s.Cfg.WriteBack:
		// Evicted dirty data writes back to its home (charged to the
		// GPM's first SM; the kernel barrier waits on it).
		s.writeBackLine(g, s.SMs[s.Cfg.Topo.SM(g, 0)], victim.Line, victim.Data)
	case s.Cfg.Policy.Downgrade && s.Cfg.Policy.Hardware:
		s.sendDowngrade(g, victim.Line)
	}
}

// sendDowngrade notifies the home node of a clean eviction so it can
// drop this GPM from the sharer set.
//
//lint:allow hotalloc downgrade delivery continuation; budget gated by the hmgperf allocs/event baseline
func (s *System) sendDowngrade(g topo.GPMID, line topo.Line) {
	sysHome := s.Pages.SysHome(line)
	home := sysHome
	if s.Cfg.Policy.Hierarchical {
		home = s.Pages.GPUHome(s.Cfg.Topo.GPUOf(g), line)
	}
	if home == g {
		return // the home itself holds no sharer entry for itself
	}
	req := proto.GPMRequester(int(g))
	if s.Cfg.Policy.Hierarchical {
		req = proto.GPMRequester(s.Cfg.Topo.LocalOf(g))
	}
	s.send(g, home, msg.Downgrade, func() {
		if d := s.gpmOf(home).Dir; d != nil {
			d.DropSharer(line, req)
			s.emit(Event{Kind: EvDowngrade, GPM: home, SM: NoSM, Line: line, Aux: int(g)})
		}
	})
}

// ---------------------------------------------------------------------
// Writes: write-through stores and write-backs
// ---------------------------------------------------------------------

// startStore begins a posted write-through store at the SM.
func (sm *SM) startStore(op trace.Op) {
	s := sm.sys
	line := s.Cfg.Topo.LineOf(op.Addr)
	word := cache.WordOf(op.Addr, s.Cfg.Topo.LineSize)
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	s.emit(Event{Kind: EvStoreIssue, GPM: sm.gpm, SM: sm.id, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	// Update any L1 copy in place (write-through, no allocate).
	if s.Cfg.TrackValues {
		if e, hit := sm.L1.Peek(line); hit {
			e.SetValue(word, op.Val)
		}
	}
	c := s.newCtx(stageStartStore)
	c.sm, c.op, c.line, c.word = sm, op, line, word
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// storeAfterL1 is the SM-side continuation of startStore one L1 latency
// after issue: absorb into the local slice under the write-back option,
// or write through toward the home hierarchy.
func (sm *SM) storeAfterL1(op trace.Op, line topo.Line, word uint16) {
	s := sm.sys
	if s.Cfg.WriteBack && op.Kind == trace.Store && op.Scope <= trace.ScopeCTA {
		// Write-back option: a plain store that hits the local slice
		// dirties it; the flush machinery assumes the visibility
		// obligation, so the store's gates are released here
		// (stageStoreWB in opctx.go).
		c := s.newCtx(stageStoreWB)
		c.sm, c.op, c.line, c.word = sm, op, line, word
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	s.routeWrite(sm.gpm, write{kind: msg.StoreReq, sm: sm, line: line, op: op, word: word})
}

// write is one write walking from a requester's L2 slice to its homes:
// a write-through store (op and word) or the write-back of a whole
// dirty line (data). kind, the message the write travels as, tells the
// two apart. Only a store emits home events, is classified under CARVE,
// and locks its system-home line under MCA; a write-back merges its line
// into the home copies.
type write struct {
	kind msg.Kind // msg.StoreReq or msg.WriteBack
	sm   *SM      // holds the GPU-home and system-home gates the write releases
	line topo.Line
	op   trace.Op
	word uint16
	data fillData // nil for stores, and when value tracking is off
	// gpuDone marks a write whose GPU-home gate is already released: one
	// forwarded by a GPU home, or an atomic's result writing through.
	gpuDone bool
}

// isStore reports whether the write is a write-through store.
func (w *write) isStore() bool { return w.kind == msg.StoreReq }

// finishGates releases the write's store gates once the system home has
// applied it.
func (w *write) finishGates() {
	if !w.gpuDone {
		w.sm.gpuHomeGate.Finish()
	}
	w.sm.sysHomeGate.Finish()
}

// routeWrite sends a write from GPM g toward its homes: straight to the
// system home, or first to the GPU home under hierarchical policies
// when the two differ. A store also updates g's own slice copy (and
// poisons any in-flight fill, which would otherwise install pre-store
// data) unless g is one of the homes.
//
//lint:allow hotalloc per-write delivery continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) routeWrite(g topo.GPMID, w write) {
	sysHome := s.Pages.SysHome(w.line)
	hier := s.Cfg.Policy.Hierarchical
	gpuHome := sysHome
	if hier {
		gpuHome = s.Pages.GPUHome(s.Cfg.Topo.GPUOf(g), w.line)
	}
	if w.isStore() && g != sysHome && g != gpuHome {
		if e, hit := s.gpmOf(g).L2.Peek(w.line); hit {
			if s.Cfg.TrackValues {
				e.SetValue(w.word, w.op.Val)
			}
		} else {
			s.gpmOf(g).poisonLine(w.line)
		}
	}
	switch {
	case g == sysHome:
		s.sysHomeWrite(g, proto.Requester{}, true, w)
	case hier && g == gpuHome && gpuHome != sysHome:
		s.gpuHomeWrite(g, g, w)
	case hier && gpuHome != sysHome:
		s.send(g, gpuHome, w.kind, func() { s.gpuHomeWrite(gpuHome, g, w) })
	default:
		// Flat protocols, or the owner GPU where the GPU home node and
		// the system home node coincide.
		req := s.flatRequester(g, sysHome)
		s.send(g, sysHome, w.kind, func() { s.sysHomeWrite(sysHome, req, false, w) })
	}
}

// gpuHomeWrite processes a write at a GPU home node that is not the
// system home, one L2 latency after arrival (gpuHomeWriteAtL2).
func (s *System) gpuHomeWrite(h, fromGPM topo.GPMID, w write) {
	c := s.newCtx(stageGPUHomeWrite)
	c.g, c.from, c.wr = h, fromGPM, w
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// gpuHomeWriteAtL2 applies a write at a GPU home: the Table I store
// transition, the home-copy update, the GPU-home gate release, and the
// forward to the system home carrying only the GPU id.
//
//lint:allow hotalloc write-forward continuation; budget gated by the hmgperf allocs/event baseline
func (s *System) gpuHomeWriteAtL2(h, fromGPM topo.GPMID, w write) {
	gpm := s.gpmOf(h)
	sysHome := s.Pages.SysHome(w.line)
	s.homeStore(gpm, w.line, fromGPM == h, proto.GPMRequester(s.Cfg.Topo.LocalOf(fromGPM)))
	s.applyWrite(gpm, &w, false)
	w.sm.gpuHomeGate.Finish()
	w.gpuDone = true
	s.send(h, sysHome, w.kind, func() {
		s.sysHomeWrite(sysHome, proto.GPURequester(int(gpm.gpu)), false, w)
	})
}

// sysHomeWrite processes a write at its system home one L2 latency after
// arrival (sysHomeWriteAtL2, or sysHomeStoreMCA for a store under
// multi-copy atomicity). local marks writes issued by the home GPM
// itself.
func (s *System) sysHomeWrite(sh topo.GPMID, req proto.Requester, local bool, w write) {
	if s.Cfg.Policy.MCA && w.isStore() {
		s.sysHomeStoreMCA(sh, req, local, w)
		return
	}
	c := s.newCtx(stageSysHomeWrite)
	c.g, c.req, c.flag, c.wr = sh, req, local, w
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// sysHomeWriteAtL2 applies a write at its system home: CARVE
// classification of a store, the Table I store transition, the
// home-copy and DRAM update, and the gate release.
func (s *System) sysHomeWriteAtL2(sh topo.GPMID, req proto.Requester, local bool, w write) {
	gpm := s.gpmOf(sh)
	if gpm.classes != nil && w.isStore() {
		accessor := topo.GPMID(req.ID)
		if local {
			accessor = sh
		}
		if s.classifyStore(gpm, w.line, accessor) {
			s.broadcastInv(gpm, w.line)
		}
	}
	s.homeStore(gpm, w.line, local, req)
	s.applyWrite(gpm, &w, true)
	w.finishGates()
}

// homeStore applies the Table I store transition at a home directory:
// the home's own store invalidates the other sharers; a remote store
// also records req, whose insertion may evict an entry whose sharers are
// invalidated too.
func (s *System) homeStore(gpm *GPM, line topo.Line, local bool, req proto.Requester) {
	if gpm.Dir == nil {
		return
	}
	if local {
		s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), gpm.Dir.LocalStore(line))
		return
	}
	inv, evR, evT := gpm.Dir.RemoteStore(line, req)
	s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), inv)
	s.sendInvs(gpm, evR, evT)
}

// applyWrite updates a home's copy of the written line: a store sets its
// word and a write-back merges its whole line, while a home that does
// not hold the line poisons any in-flight fill instead. The system home
// (atSys) also writes DRAM. A store then emits its home event.
func (s *System) applyWrite(gpm *GPM, w *write, atSys bool) {
	if e, hit := gpm.L2.Peek(w.line); hit {
		if s.Cfg.TrackValues {
			if w.isStore() {
				e.SetValue(w.word, w.op.Val)
			} else {
				e.MergeFrom(w.data)
			}
		}
	} else {
		gpm.poisonLine(w.line)
	}
	kind := EvGPUHomeStore
	if atSys {
		kind = EvHomeStore
		if w.isStore() {
			if s.Cfg.TrackValues {
				gpm.DRAM.StoreValue(w.op.Addr, w.op.Val)
			}
			gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
		} else {
			base := topo.Addr(uint64(w.line) * uint64(s.Cfg.Topo.LineSize))
			//lint:allow determinism each word stores to its own address; per-word DRAM writes commute
			for word, v := range w.data {
				gpm.DRAM.StoreValue(base+topo.Addr(word)*4, v)
			}
			gpm.DRAM.Write(s.Cfg.Topo.LineSize, nil)
		}
	}
	if w.isStore() {
		s.emit(Event{Kind: kind, GPM: gpm.id, SM: NoSM, Line: w.line,
			Addr: w.op.Addr, Scope: w.op.Scope, Op: w.op.Kind, Val: w.op.Val})
	}
}

// ---------------------------------------------------------------------
// Invalidations
// ---------------------------------------------------------------------

// invDest resolves an invalidation target of from's directory to the
// GPM the Inv goes to. GPM targets resolve within the sender's GPU under
// hierarchical protocols and globally under flat ones; GPU targets
// resolve to that GPU's home node for line, which forwards to its own
// sharers (the HMG-only Table I transition).
func (s *System) invDest(from *GPM, t proto.InvTarget, line topo.Line) topo.GPMID {
	switch {
	case t.IsGPU:
		return s.Pages.GPUHome(topo.GPUID(t.ID), line)
	case s.Cfg.Policy.Hierarchical:
		return s.Cfg.Topo.GPM(from.gpu, t.ID)
	default:
		return topo.GPMID(t.ID)
	}
}

// sendInvs dispatches background invalidations for a region to the given
// targets (resolved by invDest). The sender's drain gates count each
// invalidation until its entire fan-out has been delivered.
//
//lint:allow hotalloc invalidation delivery/ack continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) sendInvs(from *GPM, region directory.Region, targets []proto.InvTarget) {
	if len(targets) == 0 {
		return
	}
	line := from.Dir.Dir.FirstLine(region)
	gran := from.Dir.Dir.Config().GranLines
	for _, t := range targets {
		dest := s.invDest(from, t, line)
		forward := t.IsGPU
		intra := !t.IsGPU && s.Cfg.Topo.SameGPU(from.id, dest)
		from.invAll.Start()
		if intra {
			from.invIntra.Start()
		}
		finish := func() {
			from.invAll.Finish()
			if intra {
				from.invIntra.Finish()
			}
		}
		s.send(from.id, dest, msg.Inv, func() {
			d := s.gpmOf(dest)
			d.L2.InvalidateRegion(line, gran)
			d.poisonRegion(line, gran)
			s.emit(Event{Kind: EvInvDeliver, GPM: dest, SM: NoSM, Line: line, Aux: gran})
			if !forward || d.Dir == nil {
				finish()
				return
			}
			fw := d.Dir.Invalidation(region)
			if len(fw) == 0 {
				finish()
				return
			}
			s.emit(Event{Kind: EvInvForward, GPM: dest, SM: NoSM, Line: line, Aux: len(fw)})
			remaining := len(fw)
			for _, ft := range fw {
				dest2 := s.Cfg.Topo.GPM(d.gpu, ft.ID)
				s.send(dest, dest2, msg.Inv, func() {
					s.gpmOf(dest2).L2.InvalidateRegion(line, gran)
					s.gpmOf(dest2).poisonRegion(line, gran)
					s.emit(Event{Kind: EvInvDeliver, GPM: dest2, SM: NoSM, Line: line, Aux: gran})
					remaining--
					if remaining == 0 {
						finish()
					}
				})
			}
		})
	}
}

// sendInvsAcked dispatches invalidations like sendInvs but additionally
// collects an InvAck from every target, invoking onAllAcked once the
// last acknowledgment returns — the multi-copy-atomic (GPU-VI) variant
// that HMG exists to avoid.
//
//lint:allow hotalloc invalidation ack continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) sendInvsAcked(from *GPM, region directory.Region, targets []proto.InvTarget, onAllAcked func()) {
	if len(targets) == 0 {
		onAllAcked()
		return
	}
	line := from.Dir.Dir.FirstLine(region)
	gran := from.Dir.Dir.Config().GranLines
	pending := len(targets)
	for _, t := range targets {
		dest := s.invDest(from, t, line)
		s.send(from.id, dest, msg.Inv, func() {
			d := s.gpmOf(dest)
			d.L2.InvalidateRegion(line, gran)
			d.poisonRegion(line, gran)
			s.emit(Event{Kind: EvInvDeliver, GPM: dest, SM: NoSM, Line: line, Aux: gran})
			s.send(dest, from.id, msg.InvAck, func() {
				pending--
				if pending == 0 {
					onAllAcked()
				}
			})
		})
	}
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

// startAtomic begins a scoped read-modify-write. .cta atomics perform at
// the L1; .gpu and .sys atomics at the home node of their scope (where
// the L2 atomic unit serializes them per line), and the result writes
// through toward the system home. done receives the old value.
//
//lint:allow hotalloc atomic round-trip continuations; budget gated by the hmgperf allocs/event baseline
func (sm *SM) startAtomic(op trace.Op, done func(uint64)) {
	s := sm.sys
	line := s.Cfg.Topo.LineOf(op.Addr)
	word := cache.WordOf(op.Addr, s.Cfg.Topo.LineSize)
	delta := op.Val
	if delta == 0 {
		delta = 1
	}
	if op.Scope <= trace.ScopeCTA {
		// RMW through the L1: fetch the line if absent, modify locally,
		// write the result through as an ordinary store.
		loadOp := op
		loadOp.Kind = trace.Load
		loadOp.Scope = trace.ScopeNone
		sm.startLoad(loadOp, false, func(old uint64) {
			if s.Cfg.TrackValues {
				if e, hit := sm.L1.Peek(line); hit {
					e.SetValue(word, old+delta)
				}
			}
			stOp := op
			stOp.Kind = trace.Store
			stOp.Val = old + delta
			sm.startStore(stOp)
			done(old)
		})
		return
	}
	if op.Scope == trace.ScopeGPM {
		// Section VII-D extension: RMW at the GPM-local L2's atomic
		// unit, serialized per line; the result writes through onward.
		s.atomicAtLocalL2(sm, op, line, word, delta, done)
		return
	}
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	sysHome := s.Pages.SysHome(line)
	s.Eng.Schedule(s.Cfg.L1Latency, func() {
		if op.Scope == trace.ScopeGPU && s.Cfg.Policy.Hierarchical {
			gpuHome := s.Pages.GPUHome(sm.gpu, line)
			if gpuHome != sysHome {
				s.send(sm.gpm, gpuHome, msg.AtomicReq, func() {
					s.atomicAtGPUHome(sm, gpuHome, op, line, word, delta, done)
				})
				return
			}
		}
		s.send(sm.gpm, sysHome, msg.AtomicReq, func() {
			s.atomicAtSysHome(sm, sysHome, op, line, word, delta, done)
		})
	})
}

// atomicAtGPUHome performs a .gpu-scoped atomic at the GPU home node:
// directory transitions as a store, RMW on the home copy (fetching from
// the system home if absent), reply to the requester, and write the
// result through to the system home.
//
//lint:allow hotalloc atomic forward/reply continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) atomicAtGPUHome(sm *SM, h topo.GPMID, op trace.Op, line topo.Line, word uint16, delta uint64, done func(uint64)) {
	gpm := s.gpmOf(h)
	sysHome := s.Pages.SysHome(line)
	gpm.lockLine(line, func() {
		s.Eng.Schedule(s.Cfg.L2Latency, func() {
			s.homeStore(gpm, line, sm.gpm == h, proto.GPMRequester(s.Cfg.Topo.LocalOf(sm.gpm)))
			finish := func(old uint64) {
				newVal := old + delta
				if s.Cfg.TrackValues {
					e, hit := gpm.L2.Peek(line)
					if !hit {
						e, _ = gpm.L2.Fill(line)
					}
					e.SetValue(word, newVal)
				}
				s.emit(Event{Kind: EvAtomicApply, GPM: h, SM: NoSM, Line: line,
					Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: newVal})
				gpm.unlockLine(line)
				sm.gpuHomeGate.Finish()
				// Reply to the requester and write the result through.
				s.send(h, sm.gpm, msg.AtomicResp, func() { done(old) })
				stOp := op
				stOp.Val = newVal
				s.send(h, sysHome, msg.StoreReq, func() {
					s.sysHomeWrite(sysHome, proto.GPURequester(int(gpm.gpu)), false,
						write{kind: msg.StoreReq, sm: sm, line: line, op: stOp, word: word, gpuDone: true})
				})
			}
			if e, hit := gpm.L2.Lookup(line); hit {
				v, _ := e.Value(word)
				finish(v)
				return
			}
			// Fetch the line from the system home first.
			s.fetchLine(h, sysHome, op, line, proto.GPURequester(int(gpm.gpu)), true, true, func(fill fillData) {
				finish(valOf(fill, word))
			})
		})
	})
}

// atomicAtSysHome performs an atomic at the system home node.
//
//lint:allow hotalloc atomic apply/reply continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) atomicAtSysHome(sm *SM, sh topo.GPMID, op trace.Op, line topo.Line, word uint16, delta uint64, done func(uint64)) {
	gpm := s.gpmOf(sh)
	gpm.lockLine(line, func() {
		s.Eng.Schedule(s.Cfg.L2Latency, func() {
			if gpm.classes != nil {
				if s.classifyStore(gpm, line, sm.gpm) {
					s.broadcastInv(gpm, line)
				}
			}
			s.homeStore(gpm, line, sm.gpm == sh, s.flatRequester(sm.gpm, sh))
			finish := func(old uint64) {
				if s.Cfg.TrackValues {
					e, hit := gpm.L2.Peek(line)
					if !hit {
						e, _ = gpm.L2.Fill(line)
						e.MergeFrom(gpm.DRAM.LineValues(line))
					}
					e.SetValue(word, old+delta)
					gpm.DRAM.StoreValue(op.Addr, old+delta)
				}
				gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
				s.emit(Event{Kind: EvAtomicApply, GPM: sh, SM: NoSM, Line: line,
					Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: old + delta})
				gpm.unlockLine(line)
				sm.gpuHomeGate.Finish()
				sm.sysHomeGate.Finish()
				s.send(sh, sm.gpm, msg.AtomicResp, func() { done(old) })
			}
			if e, hit := gpm.L2.Lookup(line); hit {
				v, _ := e.Value(word)
				finish(v)
				return
			}
			s.dramFill(gpm, line, func(fill fillData) {
				finish(valOf(fill, word))
			})
		})
	})
}

// atomicAtLocalL2 performs a .gpm-scoped atomic at the issuing GPM's own
// L2 slice (the Section VII-D extension scope): the slice's atomic unit
// serializes per line, fetching the line through the normal hierarchy if
// absent, and the result writes through onward as a plain store.
//
//lint:allow hotalloc atomic local-slice continuations; budget gated by the hmgperf allocs/event baseline
func (s *System) atomicAtLocalL2(sm *SM, op trace.Op, line topo.Line, word uint16, delta uint64, done func(uint64)) {
	gpm := s.gpmOf(sm.gpm)
	s.Eng.Schedule(s.Cfg.L1Latency, func() {
		gpm.lockLine(line, func() {
			s.Eng.Schedule(s.Cfg.L2Latency, func() {
				finish := func(old uint64) {
					if s.Cfg.TrackValues {
						if e, hit := gpm.L2.Peek(line); hit {
							e.SetValue(word, old+delta)
						}
					}
					gpm.unlockLine(line)
					stOp := op
					stOp.Kind = trace.Store
					stOp.Scope = trace.ScopeNone
					stOp.Val = old + delta
					sm.startStore(stOp)
					done(old)
				}
				if e, hit := gpm.L2.Lookup(line); hit {
					v, _ := e.Value(word)
					finish(v)
					return
				}
				loadOp := op
				loadOp.Kind = trace.Load
				loadOp.Scope = trace.ScopeNone
				s.requesterL2Load(sm, loadOp, line, func(fill fillData) {
					finish(valOf(fill, word))
				})
			})
		})
	})
}

// sysHomeStoreMCA is the multi-copy-atomic store path of the GPU-VI
// baseline: the home line is locked while invalidations fan out, and the
// store (and therefore the storing SM's release-visible completion) only
// finishes when every sharer has acknowledged. This is the latency HMG's
// non-multi-copy-atomic design eliminates.
//
//lint:allow hotalloc MCA store continuation; budget gated by the hmgperf allocs/event baseline
func (s *System) sysHomeStoreMCA(sh topo.GPMID, req proto.Requester, local bool, w write) {
	gpm := s.gpmOf(sh)
	line := w.line
	gpm.lockLine(line, func() {
		s.Eng.Schedule(s.Cfg.L2Latency, func() {
			var inv []proto.InvTarget
			var evR directory.Region
			var evT []proto.InvTarget
			if gpm.Dir != nil {
				if local {
					inv = gpm.Dir.LocalStore(line)
				} else {
					inv, evR, evT = gpm.Dir.RemoteStore(line, req)
				}
				// Eviction fan-out keeps the ack-free background path;
				// only the store's own invalidations require acks.
				s.sendInvs(gpm, evR, evT)
			}
			finish := func() {
				s.applyWrite(gpm, &w, true)
				gpm.unlockLine(line)
				w.finishGates()
			}
			if gpm.Dir == nil || len(inv) == 0 {
				finish()
				return
			}
			s.sendInvsAcked(gpm, gpm.Dir.Dir.RegionOf(line), inv, finish)
		})
	})
}
