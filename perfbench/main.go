// Command perfbench is the repository's benchmark: it measures how fast
// the simulator itself runs (host time) on three workloads, checks that
// every simulated result is correct, and prints the metrics named in
// BENCHMARK.json. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-4x4 --seed 0 --seconds 36 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// passes and prints the per-layer metrics. See perfbench/README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
)

// fig8Reference is the stdout of `hmgbench -fig 8 -scale 0.1`, the
// campaign workload's correctness pin.
//
//go:embed testdata/fig8-scale0.1.txt
var fig8Reference []byte

// pins16x8 holds the sim-16x8 cells' cycles and events at seed 0.
//
//go:embed testdata/pins-16x8.json
var pins16x8 []byte

// benchPinFile is the committed hmgperf baseline whose cycles and
// events the sim-4x4 cells must reproduce at seed 0.
const benchPinFile = "BENCH_2026-08-09.json"

// passer is one workload: each pass sets up, runs the timed section,
// and checks the outputs. checked attaches the invariant checker.
type passer interface {
	pass(tr *tracer, checked bool) (passStats, error)
}

// env is what a workload is built from.
type env struct {
	seed    int64
	root    string // repository root holding benchPinFile
	workDir string // temporary files, inside the checkout
}

// workloads are the benchmark's named workloads; the reasons each is
// here are in README.md.
var workloads = map[string]func(env) (passer, error){
	"sim-4x4": func(e env) (passer, error) {
		buf, err := os.ReadFile(filepath.Join(e.root, benchPinFile))
		if err != nil {
			return nil, err
		}
		pins, err := readPins(buf)
		if err != nil {
			return nil, err
		}
		return newSimWorkload([]string{"lstm", "MiniAMR", "bfs"},
			[]proto.Kind{proto.SWHier, proto.NHCC, proto.HMG}, topo.Spec{}, 0.25, e.seed, pins)
	},
	"sim-16x8": func(e env) (passer, error) {
		pins, err := readPins(pins16x8)
		if err != nil {
			return nil, err
		}
		return newSimWorkload([]string{"lstm", "bfs"},
			[]proto.Kind{proto.NHCC, proto.HMG}, topo.Spec{NumGPUs: 16, GPMsPerGPU: 8}, 0.1, e.seed, pins)
	},
	"campaign": func(e env) (passer, error) {
		// The campaign runs the suite's fixed seeds; the seed argument
		// does not apply.
		return newCampaignWorkload(e.workDir, fig8Reference, 0.1, 2)
	},
}

// passStats is what one pass measured.
type passStats struct {
	setup, wall time.Duration // set-up and the timed section
	events      uint64        // simulated events in the timed section
	mallocs     uint64        // heap allocations in the timed section (traced passes)
	peakHeapMB  float64       // peak Go heap in use during the pass
	attempted   int
	failed      int
	layer       map[string]float64 // per-layer values of this pass
}

func newPassStats() passStats { return passStats{layer: map[string]float64{}} }

// fail counts one failed operation and says why on stderr.
func (st *passStats) fail(what string, err error) {
	st.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
}

// addCounters adds one run's simulated component counters.
func (st *passStats) addCounters(res *gsim.Results) {
	st.layer["engine.events"] += float64(res.EventsExecuted)
	st.layer["cache.l2_accesses"] += float64(res.L2Hits + res.L2Misses)
	st.layer["cache.l2_hits"] += float64(res.L2Hits)
	st.layer["directory.stores_seen"] += float64(res.DirStoresSeen)
	st.layer["directory.lines_inv"] += float64(res.LinesInvByStores + res.LinesInvByEvicts)
	st.layer["directory.evicts"] += float64(res.DirEvicts)
	st.layer["link.inter_gpu_bytes"] += float64(res.InterGPUBytes)
	st.layer["link.inv_msgs"] += float64(res.InvMsgsOnWire)
	st.layer["memory.dram_accesses"] += float64(res.DRAMReads + res.DRAMWrites)
}

// derive fills the per-layer ratios of a traced pass.
func (st *passStats) derive() {
	if n := st.layer["cache.l2_accesses"]; n > 0 {
		st.layer["cache.l2_hit_ratio"] = st.layer["cache.l2_hits"] / n
	}
	if st.events > 0 {
		st.layer["runtime.allocs_per_event"] = float64(st.mallocs) / float64(st.events)
	}
}

func (st *passStats) mevents() float64 {
	if st.wall <= 0 {
		return 0
	}
	return float64(st.events) / st.wall.Seconds() / 1e6
}

// outcome is one run's result line.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: sim-4x4, sim-16x8 or campaign")
	seed := flag.Int64("seed", 0, "input seed, XORed into the Table III seeds (0 reproduces them)")
	seconds := flag.Float64("seconds", 36, "how long to run passes for (at least one pass runs)")
	traced := flag.Int("trace", 0, "1 runs the traced passes and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced spans and temporary stores")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traced))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fatal(err)
	}
	res, err := run(*name, env{seed: *seed, root: ".", workDir: work},
		time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, os.Stdout)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run measures one workload. Untraced, it runs passes for about
// seconds (at least one) and reports medians over them. Traced, it
// first runs one pass of a sim workload under the invariant checker,
// then alternates untraced and traced passes, profiling the traced
// ones.
func run(name string, e env, seconds time.Duration, traced bool, outDir string, human io.Writer) (*outcome, error) {
	build, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
	}
	w, err := build(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	_, sim := w.(*simWorkload)

	tr := newTracer(traced)
	rs, err := runPasses(w, sim && traced, seconds, tr)
	if err != nil {
		return nil, err
	}

	res := &outcome{Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed, Metrics: map[string]measured{}}
	if rs.attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	fmt.Fprintf(human, "%s: %d passes, %d of %d operations failed\n",
		name, len(rs.plain)+len(rs.profiled), rs.failed, rs.attempted)
	perPass := func(ps []passStats, f func(passStats) float64) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	mev := func(p passStats) float64 { return p.mevents() }

	if !traced {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "mevents_s":
				v = perPass(rs.plain, mev)
			case "wall_s":
				v = perPass(rs.plain, func(p passStats) float64 { return p.wall.Seconds() })
			case "setup_s":
				v = perPass(rs.plain, func(p passStats) float64 { return p.setup.Seconds() })
			case "peak_heap_mb":
				v = perPass(rs.plain, func(p passStats) float64 { return p.peakHeapMB })
			}
			res.Metrics[m.name] = measured{v, m.unit}
		}
	} else {
		// Per-layer values are medians over the traced passes, except
		// these, which come from the whole run.
		whole := map[string]float64{
			"bench.tracing_overhead": perPass(rs.profiled, mev) / perPass(rs.plain, mev),
		}
		var total int64
		for _, ns := range rs.cpu {
			total += ns
		}
		for _, b := range cpuBuckets {
			whole[shareName(b)] = 100 * float64(rs.cpu[b]) / float64(max(total, 1))
		}
		if !sim {
			// The campaign generates traces inside the runner, out of
			// reach of the benchmark's spans: take the CPU seconds the
			// profile saw under Params.Generate instead.
			whole["workload.generate_s"] = float64(rs.genNanos) / 1e9 / float64(len(rs.profiled))
		}
		for _, m := range perLayer {
			v, ok := whole[m.name]
			if !ok {
				v = perPass(rs.profiled, func(p passStats) float64 { return p.layer[m.name] })
			}
			res.Metrics[m.name] = measured{v, m.unit}
		}
		if err := tr.write(filepath.Join(outDir, name+"-spans.json")); err != nil {
			return nil, err
		}
	}
	// failed_frac is not a JSON metric, since it is normally 0; the
	// result line carries it as failed and attempted.
	fmt.Fprintf(human, "  %-28s %14.6g %s\n", "failed_frac", float64(rs.failed)/float64(rs.attempted), "fraction")
	for _, m := range sortedMetrics(res.Metrics) {
		fmt.Fprintf(human, "  %-28s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	return res, nil
}

// runStats is what the passes of one run measured.
type runStats struct {
	plain, profiled   []passStats
	attempted, failed int
	cpu               map[string]int64 // CPU nanoseconds per fold bucket
	genNanos          int64            // CPU nanoseconds under Params.Generate
}

// runPasses runs the checker pass if asked, then passes until another
// is not expected to end within seconds; when tracing, odd passes are
// traced and profiled.
func runPasses(w passer, checkerPass bool, seconds time.Duration, tr *tracer) (*runStats, error) {
	rs := &runStats{cpu: map[string]int64{}}
	heap := startHeapSampler()
	defer heap.close()
	if checkerPass {
		st, err := w.pass(newTracer(false), true)
		if err != nil {
			return nil, err
		}
		rs.attempted += st.attempted
		rs.failed += st.failed
	}
	start := time.Now()
	var passTimes []float64
	for i := 0; ; i++ {
		passStart := time.Now()
		heap.takeMB()
		profile := tr.on && i%2 == 1
		pt := newTracer(false)
		var buf bytes.Buffer
		if profile {
			pt = tr
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
		}
		var st passStats
		_, err := pt.do("bench.pass", func() (err error) {
			st, err = w.pass(pt, false)
			return err
		})
		if profile {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
		st.peakHeapMB = heap.takeMB()
		rs.attempted += st.attempted
		rs.failed += st.failed
		kind := "untraced"
		if profile {
			kind = "traced"
		}
		fmt.Fprintf(os.Stderr, "pass %d (%s): setup %.3fs, timed %.3fs, %.4f Mevents/s, peak heap %.1f MB\n",
			i, kind, st.setup.Seconds(), st.wall.Seconds(), st.mevents(), st.peakHeapMB)
		if profile {
			p, err := decodeProfile(buf.Bytes())
			if err != nil {
				return nil, err
			}
			for b, ns := range fold(p) {
				rs.cpu[b] += ns
			}
			rs.genNanos += cumulative(p, "hmg/internal/workload.Params.Generate")
			st.derive()
			rs.profiled = append(rs.profiled, st)
		} else {
			rs.plain = append(rs.plain, st)
		}
		// Start another pass only if it is expected to end in time, so a
		// run lasts about --seconds however long a pass takes.
		passTimes = append(passTimes, time.Since(passStart).Seconds())
		next := time.Since(start) + time.Duration(median(passTimes)*float64(time.Second))
		if next > seconds && (!tr.on || len(rs.profiled) > 0) {
			return rs, nil
		}
	}
}

func sortedMetrics(ms map[string]measured) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
