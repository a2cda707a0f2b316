package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmg/internal/consist"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// The golden event-stream digests pin the simulated model bit for bit:
// every protocol × {write-through, write-back L2} on the conformance
// machine, over a few benchmarks chosen to exercise .gpm, .gpu and .sys
// atomics, releases and acquires alongside plain traffic. A refactor of
// the datapath must leave every digest unchanged. Only a deliberate
// model change — one that also bumps modelSchemaVersion in
// internal/experiments — regenerates the file:
//
//	go test ./internal/check -run TestEventDigests -update-digests
var updateDigests = flag.Bool("update-digests", false,
	"rewrite "+digestFile+" (deliberate model changes only, with a modelSchemaVersion bump)")

const digestFile = "testdata/event_digests.txt"

// namedWorkload is one pinned workload, its name in the golden file,
// the scale it runs at and the scope its synchronization must issue at
// (ScopeNone for synchronization-free traffic).
type namedWorkload struct {
	name  string
	p     workload.Params
	scale float64
	sync  trace.Scope
}

// digestWorkloads returns the pinned workloads. mst synchronizes at
// .gpu scope, half of its episodes through atomics; the /sys and /gpm
// variants move the same episodes to the other scopes. Generate never
// lets a warp synchronize more often than every 16 ops, so mst runs at
// scale 0.25: 37 ops per warp, two sync episodes each. bfs is plain,
// synchronization-free traffic.
func digestWorkloads(t *testing.T) []namedWorkload {
	t.Helper()
	get := func(name string) workload.Params {
		p, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mst := get("mst")
	mstSys, mstGPM := mst, mst
	mstSys.SyncScope = trace.ScopeSys
	mstGPM.SyncScope = trace.ScopeGPM
	return []namedWorkload{
		{"mst", mst, 0.25, trace.ScopeGPU},
		{"mst/sys", mstSys, 0.25, trace.ScopeSys},
		{"mst/gpm", mstGPM, 0.25, trace.ScopeGPM},
		{"bfs", get("bfs"), 0.05, trace.ScopeNone},
	}
}

// checkSync fails unless every synchronizing op of tr is at scope want
// and, when want is a scope, tr issues atomics, releases and acquires,
// so a trace whose sync cadence silently falls out cannot pin the
// synchronizing walks.
func checkSync(t *testing.T, name string, tr *trace.Trace, want trace.Scope) {
	t.Helper()
	count := map[trace.OpKind]int{}
	for _, k := range tr.Kernels {
		for _, c := range k.CTAs {
			for _, w := range c.Warps {
				for _, op := range w.Ops {
					if !op.Kind.IsSync() {
						continue
					}
					if op.Scope != want {
						t.Fatalf("%s: %v at scope %v, want %v", name, op.Kind, op.Scope, want)
					}
					count[op.Kind]++
				}
			}
		}
	}
	if want == trace.ScopeNone {
		return
	}
	for _, k := range []trace.OpKind{trace.Atomic, trace.StoreRel, trace.LoadAcq} {
		if count[k] == 0 {
			t.Errorf("%s: no %v ops at scope %v", name, k, want)
		}
	}
}

// runDigest runs one configuration and hashes its whole event stream
// (every event's cycle and fields) followed by the Results codec bytes.
func runDigest(cfg gsim.Config, tr *trace.Trace) (string, error) {
	sys, err := gsim.New(cfg)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf []byte
	sys.OnEvent = func(ev gsim.Event) {
		buf = buf[:0]
		for _, v := range []uint64{uint64(ev.Cycle), uint64(ev.Kind), uint64(ev.GPM), uint64(ev.SM),
			uint64(ev.Line), uint64(ev.Addr), uint64(ev.Scope), uint64(ev.Op), ev.Val, uint64(int64(ev.Aux))} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	res, err := sys.Run(tr)
	if err != nil {
		return "", err
	}
	b, err := res.MarshalBinary()
	if err != nil {
		return "", err
	}
	h.Write(b)
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestEventDigests compares every run's digest against the committed
// golden file.
func TestEventDigests(t *testing.T) {
	wls := digestWorkloads(t)
	trs := make([]*trace.Trace, len(wls))
	for i, wl := range wls {
		trs[i] = wl.p.Generate(consist.SmallConfig(proto.HMG).Topo, wl.scale)
		checkSync(t, wl.name, trs[i], wl.sync)
	}
	got := map[string]string{}
	var keys []string
	for _, k := range proto.AllKinds() {
		for _, wb := range []bool{false, true} {
			policy := "write-through"
			if wb {
				policy = "write-back"
			}
			for i, wl := range wls {
				key := fmt.Sprintf("%v/%s/%s", k, policy, wl.name)
				cfg := consist.SmallConfig(k)
				cfg.WriteBack = wb
				d, err := runDigest(cfg, trs[i])
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				keys = append(keys, key)
				got[key] = d
			}
		}
	}

	path := filepath.FromSlash(digestFile)
	if *updateDigests {
		var b strings.Builder
		b.WriteString("# Golden event-stream digests (TestEventDigests). Regenerate only with a\n")
		b.WriteString("# deliberate model change and a modelSchemaVersion bump.\n")
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t, path)
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the sweep produced %d", digestFile, len(want), len(got))
	}
	for _, key := range keys {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest", key)
		case w != got[key]:
			t.Errorf("%s: event-stream digest %s, golden %s (the simulated model changed)", key, got[key], w)
		}
	}
}

func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
