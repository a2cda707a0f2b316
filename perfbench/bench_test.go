package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step, and checks every end-to-end metric has a
// regression bound.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}

	seen := map[string]bool{}
	check := func(kind string, got []metric, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric %q: name must match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("metric %q: better = %q", name, better)
		}
		for _, m := range got {
			if m.name == name {
				if m.unit != unit {
					t.Errorf("metric %q: BENCHMARK.json unit %q, program %q", name, unit, m.unit)
				}
				return
			}
		}
		t.Errorf("%s metric %q is not printed by the program", kind, name)
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		check("end-to-end", endToEnd, m.Name, m.Unit, m.Better)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		check("per-layer", perLayer, m.Name, m.Unit, m.Better)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
}

// TestWrongPinFails proves the sim pins have teeth: one deliberately
// wrong cycle count fails exactly that cell.
func TestWrongPinFails(t *testing.T) {
	buf, err := os.ReadFile("../" + benchPinFile)
	if err != nil {
		t.Fatal(err)
	}
	wrong := strings.Replace(string(buf), `"cycles": 27844,`, `"cycles": 27845,`, 1)
	if wrong == string(buf) {
		t.Fatal("pin to corrupt not found")
	}
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, benchPinFile), []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run("sim-4x4", env{root: root}, 0, false, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 9 {
		t.Fatalf("correct=%v failed=%d attempted=%d; want one failed cell of 9", res.Correct, res.Failed, res.Attempted)
	}
}

// TestWrongFigureFails proves the campaign byte pin has teeth. The
// campaign runs at a small scale against a reference it cannot match:
// only the cold figure fails, and the warm replay still agrees with it.
func TestWrongFigureFails(t *testing.T) {
	w, err := newCampaignWorkload(t.TempDir(), []byte("not the figure\n"), 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.pass(newTracer(false), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 1 || st.attempted != len(w.plan)+2 {
		t.Fatalf("failed %d of %d; want 1 of %d", st.failed, st.attempted, len(w.plan)+2)
	}
}

// TestTracedHeldOutSeed runs the traced sim-4x4 at a seed no pin
// covers: the checker pass and every later pass must be clean, every
// per-layer metric printed, and the CPU shares must cover the profile.
func TestTracedHeldOutSeed(t *testing.T) {
	res, err := run("sim-4x4", env{seed: 0x5eed, root: ".."}, 0, true, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 27 {
		t.Fatalf("correct=%v failed=%d attempted=%d; want 27 clean operations", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += res.Metrics[shareName(b)].Value
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("CPU shares sum to %v%%", sum)
	}
	for _, m := range []string{"engine.events", "gsim.run_s", "gsim.run_s.HMG", "workload.generate_s", "engine.cpu_share"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

// TestFoldProfile folds a real profile of a small simulation.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	p, _ := workload.Get("bfs")
	cfg := gsim.DefaultConfig(4, proto.HMG)
	cfg.Topo = topo.Spec{NumGPUs: 2, GPMsPerGPU: 2}.Apply(cfg.Topo)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sys, err := gsim.New(cfg)
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		if _, err := sys.Run(p.Generate(cfg.Topo, 0.05)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, folded int64
	for _, ns := range prof.nanos {
		total += ns
	}
	byBucket := fold(prof)
	for b, ns := range byBucket {
		if !contains(cpuBuckets, b) {
			t.Errorf("fold produced unknown bucket %q", b)
		}
		folded += ns
	}
	if total == 0 || folded != total {
		t.Fatalf("folded %d of %d ns", folded, total)
	}
	if byBucket["engine"] == 0 || byBucket["gsim"] == 0 {
		t.Errorf("no engine or gsim time in %v", byBucket)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "hmg/internal/gsim.(*System).send"}, bucketGC},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "hmg/internal/gsim.(*System).send"}, bucketMalloc},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast64", "hmg/internal/cache.(*Cache).Lookup"}, bucketMaps},
		{[]string{"math/rand.(*rngSource).Int63", "math/rand.(*Rand).Int63", "hmg/internal/workload.Params.genWarp"}, "workload"},
		{[]string{"runtime.memmove", "hmg/internal/engine.(*Engine).Run"}, "engine"},
		{[]string{"hmg/internal/proto.(*DirCtrl).LocalStore", "hmg/internal/gsim.(*System).send"}, "directory"},
		{[]string{"hmg/internal/topo.Topology.HomeOf", "hmg/internal/gsim.(*System).send"}, bucketOther},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketRTOther},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
