// Command hmgbench regenerates the paper's tables and figures on the
// simulator.
//
// Usage:
//
//	hmgbench -fig 8                 # one figure
//	hmgbench -fig all               # everything (the EXPERIMENTS.md run)
//	hmgbench -fig 12 -scale 0.5 -v  # faster sweep with progress output
//	hmgbench -fig all -jobs 8       # prewarm runs on 8 parallel workers
//	hmgbench -fig all -cachedir ~/.cache/hmg  # persistent result store
//	hmgbench -fig 8 -cpuprofile cpu.pprof     # profile the campaign
//
// Figures: 2, 3, 7, 8, 9, 10, 11, 12, 13, 14, granularity, downgrade,
// writeback, gpmscope, scaling, toposcale, carve, locality, mca,
// tableII, tableIII, cost.
//
// The figure set is defined by the experiments.Figures registry; every
// simulation is memoized by (benchmark, protocol, variant), so -jobs
// only changes wall-clock time — table output is byte-identical at any
// parallelism.
//
// -cachedir backs the memo cache with an on-disk content-addressed
// store (internal/resstore): runs already on disk under the current
// model version are served without simulating, so re-running a
// campaign after a one-figure change only simulates the delta — and
// because the simulator is deterministic, warm output is byte-identical
// to cold. Damaged or stale records are re-simulated, never trusted.
// -storeversion prints the model-version stamp that scopes the store
// (CI keys its store cache on it) and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"hmg/internal/experiments"
	"hmg/internal/profiling"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

func main() { os.Exit(run()) }

// run is the whole command. It returns the exit status, so the
// deferred profile writes happen on every path; failing to write a
// requested profile fails an otherwise clean run.
func run() (code int) {
	names := strings.Join(experiments.FigureNames(), ",")
	fig := flag.String("fig", "all", "figure to regenerate ("+names+",all)")
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]")
	sms := flag.Int("sms", 8, "modeled SMs per GPM")
	topoFlag := flag.String("topo", "", topo.SpecFlagUsage+" (reshapes the campaign's base machine)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers for the campaign prewarm")
	cachedir := flag.String("cachedir", "", "directory of the persistent content-addressed result store (empty disables the disk tier)")
	storeVersion := flag.Bool("storeversion", false, "print the campaign store's model-version stamp and exit")
	verbose := flag.Bool("v", false, "log each simulation run and the campaign summary")
	format := flag.String("format", "text", "output format: text, csv, or md")
	cpuprofile := flag.String("cpuprofile", "", profiling.CPUUsage)
	memprofile := flag.String("memprofile", "", profiling.MemUsage)
	flag.Parse()

	if *storeVersion {
		fmt.Println(experiments.ModelVersion())
		return 0
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if err := workload.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
		return 2
	}
	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.SMsPerGPM = *sms
	opts.Jobs = *jobs
	spec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
		return 2
	}
	opts.Topo = spec
	if *cachedir != "" {
		st, err := experiments.OpenStore(*cachedir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
			return 2
		}
		opts.Store = st
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmgbench: %v\n", err)
		return 2
	}

	want := strings.ToLower(*fig)
	var selected []experiments.Figure
	for _, f := range experiments.Figures() {
		if want == "all" || want == strings.ToLower(f.Name) {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "hmgbench: unknown figure %q (known: %s,all)\n", *fig, names)
		return 2
	}

	// Prewarm the union of the selected figures' runs across the worker
	// pool; generation below then reads the warm cache in order.
	if err := r.Prewarm(experiments.PlanUnion(selected)); err != nil {
		fmt.Fprintf(os.Stderr, "hmgbench: prewarm: %v\n", err)
		return 1
	}

	for _, f := range selected {
		t, err := f.Gen(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmgbench: figure %s: %v\n", f.Name, err)
			return 1
		}
		switch *format {
		case "csv":
			fmt.Println(t.CSV())
		case "md":
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
	}
	if *verbose {
		s := r.Summary()
		mevps := 0.0
		if s.RunWall > 0 {
			mevps = float64(s.Events) / s.RunWall.Seconds() / 1e6
		}
		disk := ""
		if *cachedir != "" {
			disk = fmt.Sprintf(", %d disk hits, %d disk misses, %d disk writes", s.DiskHits, s.DiskMisses, s.DiskWrites)
		}
		fmt.Fprintf(os.Stderr, "campaign: %d unique runs, %d memo hits%s, %.1f Mcycles simulated, %.1f M events/s of run wall (%.1fs summed)\n",
			s.UniqueRuns, s.MemoHits, disk, float64(s.SimCycles)/1e6, mevps, s.RunWall.Seconds())
	}
	return 0
}
