package gsim

import (
	"testing"

	"hmg/internal/directory"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

func wbConfig(k proto.Kind) Config {
	cfg := tinyConfig(k)
	cfg.WriteBack = true
	return cfg
}

// TestWBStoreAbsorbedLocally: a plain store to a locally cached line
// dirties the slice and produces no write-through traffic.
func TestWBStoreAbsorbedLocally(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Load (fills local L2), then store to the same line, owned remotely.
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Store, Addr: 0, Val: 7, Gap: 100000},
	}}}}
	tr := placeAll(&trace.Trace{Name: "wb", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	// The kernel-end barrier flushed the dirty line: DRAM must hold 7.
	if got := s.GPMs[3].DRAM.LoadValue(0); got != 7 {
		t.Fatalf("DRAM after kernel barrier = %d, want 7 (flush missing)", got)
	}
}

// TestWBDirtyNotFlushedBeforeBarrier: mid-kernel, the dirty value stays
// local (that is the point of write-back): probe via a sibling's read of
// the home, which must still see the old value while the line is dirty.
func TestWBDirtyLineIsDirty(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	s.OnLoadValue = func(_ topo.SMID, op trace.Op, v uint64) {
		if op.Addr == 128 { // the probe op
			// At probe time the store to line 0 was absorbed: check the
			// local slice is dirty.
			line := s.Cfg.Topo.LineOf(0)
			if e, ok := s.GPMs[1].L2.Peek(line); !ok || !e.Dirty {
				t.Error("store not absorbed as dirty data")
			}
			done = true
		}
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Store, Addr: 0, Val: 9, Gap: 100000},
		{Kind: trace.Load, Addr: 128, Gap: 100000}, // probe
	}}}}
	tr := placeAll(&trace.Trace{Name: "wbdirty", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("probe never ran")
	}
}

// TestWBReleaseFlushes: a .sys release flushes dirty data so the MP
// litmus still passes under write-back for every coherent protocol.
func TestWBMessagePassing(t *testing.T) {
	for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			cfg := wbConfig(k)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var flag, data uint64
			s.OnLoadValue = func(_ topo.SMID, op trace.Op, v uint64) {
				switch {
				case op.Addr == 0x200 && op.Kind == trace.LoadAcq:
					flag = v
				case op.Addr == 0x100 && op.Kind == trace.Load:
					data = v
				}
			}
			// Writer warms its own cache (so the data store is absorbed
			// as dirty — the interesting case), then stores + releases.
			k1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
			k1.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.Load, Addr: 0x100},
			}}}}
			k2 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
			k2.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.Store, Addr: 0x100, Val: 42},
				{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 0x200, Val: 1},
			}}}}
			k2.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.LoadAcq, Scope: trace.ScopeSys, Addr: 0x200, Gap: 3_000_000},
				{Kind: trace.Load, Addr: 0x100},
			}}}}
			tr := placeAll(&trace.Trace{Name: "wbmp", Kernels: []trace.Kernel{k1, k2}}, 1, 0)
			if _, err := s.Run(tr); err != nil {
				t.Fatal(err)
			}
			if flag != 1 {
				t.Fatalf("flag = %d, want 1", flag)
			}
			if data != 42 {
				t.Fatalf("data = %d, want 42 (dirty line not flushed by release)", data)
			}
		})
	}
}

// TestWBDirtyEvictionWritesBack: evicting a dirty line sends its data
// home.
func TestWBDirtyEvictionWritesBack(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	cfg.L2Slice.CapacityBytes = 2 * 128 * 2 // 2 sets × 2 ways: tiny
	cfg.L2Slice.Ways = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.Op
	// Dirty line 0, then stream enough lines through the tiny slice to
	// evict it, then wait.
	ops = append(ops, trace.Op{Kind: trace.Load, Addr: 0})
	ops = append(ops, trace.Op{Kind: trace.Store, Addr: 0, Val: 77, Gap: 50000})
	for i := 1; i <= 8; i++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128), Gap: 50000})
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	tr := placeAll(&trace.Trace{Name: "wbevict", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if got := s.GPMs[3].DRAM.LoadValue(0); got != 77 {
		t.Fatalf("evicted dirty data lost: DRAM = %d, want 77", got)
	}
}

// TestWBSyncStoresStillWriteThrough: scoped stores are never absorbed
// (forward progress requires write-through to the scope home).
func TestWBSyncStoresStillWriteThrough(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 0, Val: 5, Gap: 100000},
		{Kind: trace.Load, Addr: 512, Gap: 100000}, // probe after release
	}}}}
	hit := false
	s.OnLoadValue = func(_ topo.SMID, op trace.Op, _ uint64) {
		if op.Addr == 512 {
			hit = true
			if got := s.GPMs[3].DRAM.LoadValue(0); got != 5 {
				t.Errorf("release store not at DRAM before release completed: %d", got)
			}
		}
	}
	tr := placeAll(&trace.Trace{Name: "wbsync", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("probe never ran")
	}
}

// TestWBReducesStoreTraffic: on a store-heavy workload with locality,
// write-back produces less inter-GPU store traffic than write-through.
func TestWBReducesStoreTraffic(t *testing.T) {
	mk := func(wb bool) *Results {
		cfg := tinyConfig(proto.HMG)
		cfg.WriteBack = wb
		var ops []trace.Op
		for i := 0; i < 8; i++ {
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128)})
		}
		for r := 0; r < 10; r++ {
			for i := 0; i < 8; i++ {
				ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 128), Val: uint64(r), Gap: 200})
			}
		}
		kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
		kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
		tr := placeAll(&trace.Trace{Name: "wbtraffic", Kernels: []trace.Kernel{kern}}, 1, 3)
		return mustRun(t, cfg, tr)
	}
	wt := mk(false)
	wb := mk(true)
	if wb.InterGPUBytes >= wt.InterGPUBytes {
		t.Fatalf("write-back traffic (%d B) not below write-through (%d B)", wb.InterGPUBytes, wt.InterGPUBytes)
	}
}

// TestWriteWalkRoutes drives every home-side walk down every route: a
// write-through store, a write-back, .gpu and .sys loads, and .gpu and
// .sys atomics, each issued at the system home, at a GPU home, through a
// GPU home, and flat to the system home. Under NHCC there are no GPU
// homes, so the last three all route flat. Each case checks the value
// the op saw (loads and atomics) or left in the home DRAM, the directory
// sharers at each home, that the issuing SM's store gates were charged
// and drained, and that no fetch or line lock is left outstanding.
func TestWriteWalkRoutes(t *testing.T) {
	const addr, val = 0, 42
	for _, k := range []proto.Kind{proto.NHCC, proto.HMG} {
		for _, opName := range []string{"store", "writeback", "load-gpu", "load-sys", "atomic-gpu", "atomic-sys"} {
			for _, route := range []string{"at-sys-home", "at-gpu-home", "via-gpu-home", "flat"} {
				k, opName, route := k, opName, route
				t.Run(k.String()+"/"+opName+"/"+route, func(t *testing.T) {
					cfg := tinyConfig(k)
					cfg.WriteBack = opName == "writeback"
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// GPM 0 (GPU 0) is the system home; GPU 1 holds GPMs 2
					// and 3, one of which is its GPU home for the line.
					s.Pages.Touch(addr, 0)
					line := s.Cfg.Topo.LineOf(addr)
					gpuHome := s.Pages.GPUHome(1, line)
					var writer topo.GPMID
					switch route {
					case "at-sys-home":
						writer = 0
					case "at-gpu-home":
						writer = gpuHome
					case "via-gpu-home":
						writer = 5 - gpuHome // the other GPM of GPU 1
					case "flat":
						writer = 1
					}
					var ops []trace.Op
					switch opName {
					case "store":
						ops = []trace.Op{{Kind: trace.Store, Addr: addr, Val: val}}
					case "writeback":
						// Cache the line first so the store is absorbed as
						// dirty data; the kernel-end flush writes it back.
						ops = []trace.Op{
							{Kind: trace.Load, Addr: addr},
							{Kind: trace.Store, Addr: addr, Val: val, Gap: 100000},
						}
					case "load-gpu":
						ops = []trace.Op{{Kind: trace.Load, Scope: trace.ScopeGPU, Addr: addr}}
					case "load-sys":
						ops = []trace.Op{{Kind: trace.Load, Scope: trace.ScopeSys, Addr: addr}}
					case "atomic-gpu":
						ops = []trace.Op{{Kind: trace.Atomic, Scope: trace.ScopeGPU, Addr: addr}}
					case "atomic-sys":
						ops = []trace.Op{{Kind: trace.Atomic, Scope: trace.ScopeSys, Addr: addr}}
					}
					isLoad := opName == "load-gpu" || opName == "load-sys"
					isAtomic := opName == "atomic-gpu" || opName == "atomic-sys"
					if isLoad || isAtomic {
						// Loads and atomics read a value already in memory;
						// an atomic with no operand adds 1.
						s.GPMs[0].DRAM.StoreValue(addr, val)
					}
					var loaded, applied []uint64
					s.OnLoadValue = func(_ topo.SMID, op trace.Op, v uint64) {
						if op.Addr == addr {
							loaded = append(loaded, v)
						}
					}
					s.OnEvent = func(ev Event) {
						if ev.Kind == EvAtomicApply {
							applied = append(applied, ev.Val)
						}
					}
					kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
					kern.CTAs[writer] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
					if _, err := s.Run(&trace.Trace{Name: "walk", Kernels: []trace.Kernel{kern}}); err != nil {
						t.Fatal(err)
					}

					wantDRAM := uint64(val)
					switch {
					case isLoad:
						if len(loaded) != 1 || loaded[0] != val {
							t.Fatalf("loaded values %v, want [%d]", loaded, val)
						}
					case isAtomic:
						// EvAtomicApply carries the new value: old + 1.
						if len(applied) != 1 || applied[0] != val+1 {
							t.Fatalf("atomic applied %v, want [%d] (old value %d + 1)", applied, val+1, val)
						}
						wantDRAM = val + 1
					}
					if got := s.GPMs[0].DRAM.LoadValue(addr); got != wantDRAM {
						t.Fatalf("system-home DRAM = %d, want %d", got, wantDRAM)
					}

					// Sharers: a write leaves its remote writer as the only
					// sharer: the writer's GPU at an HMG system home outside
					// it, the writer's GPM at a GPU home or a flat home. A
					// .sys atomic skips the GPU home. .gpu and .sys loads do
					// not fill the requester's slice, so only HMG's GPU home
					// tracks anything: it records its GPU at the system home
					// when it fetches for a .gpu load, and records a sibling
					// requester although that requester does not cache.
					var wantSys, wantGPU directory.Sharers
					hier := k == proto.HMG
					inGPU1 := s.Cfg.Topo.GPUOf(writer) == 1
					sibling := writer != gpuHome
					switch {
					case writer == 0:
					case opName == "load-sys", opName == "load-gpu" && !hier:
					case opName == "load-gpu":
						if inGPU1 {
							wantSys = directory.GPUBit(1)
							if sibling {
								wantGPU = directory.GPMBit(s.Cfg.Topo.LocalOf(writer))
							}
						}
					case hier && inGPU1:
						wantSys = directory.GPUBit(1)
						if sibling && opName != "atomic-sys" {
							wantGPU = directory.GPMBit(s.Cfg.Topo.LocalOf(writer))
						}
					case hier:
						wantSys = directory.GPMBit(s.Cfg.Topo.LocalOf(writer))
					default:
						wantSys = directory.GPMBit(int(writer))
					}
					checkSharers := func(home topo.GPMID, want directory.Sharers) {
						t.Helper()
						d := s.GPMs[home].Dir
						var got directory.Sharers
						if e, ok := d.Dir.Lookup(d.Dir.RegionOf(line)); ok {
							got = e.Sharers
						}
						if !got.Equal(want) {
							t.Fatalf("GPM %d directory sharers = %v, want %v", home, got, want)
						}
					}
					checkSharers(0, wantSys)
					if hier {
						checkSharers(gpuHome, wantGPU)
					}

					// A store or atomic charges the issuer's gates once, a
					// write-back once more, and a load not at all.
					var wantStarted uint64
					switch {
					case opName == "writeback":
						wantStarted = 2
					case !isLoad:
						wantStarted = 1
					}
					sm := s.SMs[s.Cfg.Topo.SM(writer, 0)]
					for _, g := range []*drain{&sm.gpuHomeGate, &sm.sysHomeGate} {
						if g.started != wantStarted || g.Pending() != 0 {
							t.Fatalf("writer gate started %d (want %d), pending %d (want 0)",
								g.started, wantStarted, g.Pending())
						}
					}
					for _, gpm := range s.GPMs {
						if len(gpm.mshr) != 0 || len(gpm.pendingLines) != 0 || len(gpm.atomicQ) != 0 {
							t.Fatalf("GPM %d left %d MSHR entries, %d pending lines, %d locked lines",
								gpm.id, len(gpm.mshr), len(gpm.pendingLines), len(gpm.atomicQ))
						}
					}
				})
			}
		}
	}
}
