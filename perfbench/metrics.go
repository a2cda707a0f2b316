package main

import (
	"sort"
	"strings"
)

// metric names one reported number and its unit. The lists below are
// the benchmark's contract and must match BENCHMARK.json (a test
// enforces it).
type metric struct{ name, unit string }

// endToEnd are what a user of the simulator sees, measured with
// tracing off. All are host measurements; mevents_s counts simulated
// events but divides them by host seconds.
var endToEnd = []metric{
	{"mevents_s", "Mevents/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// simKinds are the protocols the sim workloads run; each gets its own
// gsim.run_s.<protocol> metric.
var simKinds = []string{"SW-Hier", "NHCC", "HMG"}

// perLayer come from the traced run. Times are host seconds per pass
// (median over traced passes), counts are simulated quantities per
// pass, and *.cpu_share is the layer's share of the traced passes' CPU
// profile. A layer a workload never calls reads 0.
var perLayer = func() []metric {
	m := []metric{
		{"engine.events", "count"},
		{"gsim.new_s", "s"},
		{"gsim.run_s", "s"},
	}
	for _, k := range simKinds {
		m = append(m, metric{"gsim.run_s." + k, "s"})
	}
	m = append(m,
		metric{"cache.l2_accesses", "count"},
		metric{"cache.l2_hit_ratio", "ratio"},
		metric{"directory.stores_seen", "count"},
		metric{"directory.lines_inv", "count"},
		metric{"directory.evicts", "count"},
		metric{"link.inter_gpu_bytes", "B"},
		metric{"link.inv_msgs", "count"},
		metric{"memory.dram_accesses", "count"},
		metric{"workload.generate_s", "s"},
		metric{"workload.ops", "count"},
		metric{"experiments.prewarm_s", "s"},
		metric{"experiments.unique_runs", "count"},
		metric{"experiments.run_wall_s", "s"},
		metric{"experiments.worker_idle_s", "s"},
		metric{"resstore.writes", "count"},
		metric{"resstore.disk_hits", "count"},
		metric{"resstore.warm_s", "s"},
		metric{"report.render_s", "s"},
		metric{"runtime.allocs_per_event", "count"},
		metric{"runtime.gc_cycles", "count"},
		metric{"bench.tracing_overhead", "ratio"},
	)
	for _, b := range cpuBuckets {
		m = append(m, metric{shareName(b), "%"})
	}
	return m
}()

// shareName is the metric name of a CPU-fold bucket's share:
// "gsim" → "gsim.cpu_share", "runtime.gc" → "runtime.gc_cpu_share".
func shareName(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_cpu_share"
	}
	return bucket + ".cpu_share"
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
