package hmg

import (
	"math"
	"strings"
	"testing"

	"hmg/internal/trace"
)

// TestTableII verifies the public default configuration matches the
// paper's Table II.
func TestTableII(t *testing.T) {
	cfg := DefaultConfig(ProtocolHMG)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Topo.NumGPUs != 4 || cfg.Topo.GPMsPerGPU != 4 {
		t.Error("not a 4-GPU × 4-GPM system")
	}
	if got := cfg.L2Slice.CapacityBytes * cfg.Topo.GPMsPerGPU; got != 12<<20 {
		t.Errorf("L2 per GPU = %d, want 12MB", got)
	}
	if cfg.Dir.Entries != 12*1024 || cfg.Dir.GranLines != 4 {
		t.Error("directory is not 12K entries × 4 lines")
	}
	if cfg.Net.NVLinkGBs != 200 {
		t.Error("inter-GPU links are not 200 GB/s")
	}
	if cfg.FrequencyHz != 1.3e9 {
		t.Error("clock is not 1.3 GHz")
	}
	if cfg.Topo.PageSize != 2<<20 {
		t.Error("page size is not 2MB")
	}
	if cfg.Topo.LineSize != 128 {
		t.Error("line size is not 128B")
	}
}

// TestHardwareCost reproduces the Section VII-C numbers: 6 sharers, 55
// bits per entry, ~84KB per GPM, ~2.7% of the L2 slice.
func TestHardwareCost(t *testing.T) {
	rep := HardwareCost(DefaultConfig(ProtocolHMG))
	if rep.MaxSharers != 6 {
		t.Errorf("MaxSharers = %d, want 6 (M+N-2)", rep.MaxSharers)
	}
	if rep.BitsPerEntry != 55 {
		t.Errorf("BitsPerEntry = %d, want 55", rep.BitsPerEntry)
	}
	if rep.BytesPerGPM < 82*1024 || rep.BytesPerGPM > 86*1024 {
		t.Errorf("BytesPerGPM = %d, want ≈84KB", rep.BytesPerGPM)
	}
	if rep.L2Fraction < 0.025 || rep.L2Fraction > 0.029 {
		t.Errorf("L2Fraction = %.4f, want ≈2.7%%", rep.L2Fraction)
	}
}

func TestProtocols(t *testing.T) {
	ps := Protocols()
	if len(ps) != 6 {
		t.Fatalf("protocols = %d, want 6", len(ps))
	}
	for _, p := range ps {
		back, err := ParseProtocol(p.String())
		if err != nil || back != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), back, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("ParseProtocol accepted bogus name")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 20 {
		t.Fatalf("benchmark count = %d, want Table III's 20", len(bs))
	}
}

func TestGenerateBenchmark(t *testing.T) {
	cfg := DefaultConfig(ProtocolHMG)
	tr, err := GenerateBenchmark("lstm", cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateBenchmark("nope", cfg, 0.1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// A scale outside (0, 1] is an error, not a panic.
	for _, scale := range []float64{0, math.NaN(), -0.5, 1.5} {
		if _, err := GenerateBenchmark("lstm", cfg, scale); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("GenerateBenchmark at scale %v: err = %v, want a scale error", scale, err)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	cfg := DefaultConfig(ProtocolHMG)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateBenchmark("overfeat", cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Ops == 0 {
		t.Fatalf("empty results: %+v", res)
	}
	if sys.Raw() == nil {
		t.Fatal("Raw() nil")
	}
}

func TestSpeedupAPI(t *testing.T) {
	sp, err := Speedup("overfeat", DefaultConfig(ProtocolIdeal), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
}

// TestSpeedupBaselineCanonical guards the normalization of Speedup: the
// no-remote-caching baseline runs at the Table II defaults even when the
// measured configuration carries variant options. Before the fix the
// baseline inherited the caller's config, so fields like WriteBack and
// ScatterCTAs leaked into the baseline run and skewed the reported
// speedup.
func TestSpeedupBaselineCanonical(t *testing.T) {
	const bench = "mst" // store-heavy: write-back measurably shifts its cycle count
	const scale = 0.1

	runCycles := func(cfg Config) float64 {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := GenerateBenchmark(bench, cfg, scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Cycles)
	}

	cfg := DefaultConfig(ProtocolHMG)
	cfg.WriteBack = true
	baseCycles := runCycles(DefaultConfig(ProtocolNoRemoteCaching))
	want := baseCycles / runCycles(cfg)

	got, err := Speedup(bench, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Speedup = %v, want %v (canonical write-through baseline)", got, want)
	}

	// The leak this guards against is observable: a baseline that
	// inherits the write-back option simulates a different machine.
	leaked := DefaultConfig(ProtocolNoRemoteCaching)
	leaked.WriteBack = true
	if leakCycles := runCycles(leaked); leakCycles == baseCycles {
		t.Fatalf("write-back no longer affects the baseline (%v cycles); pick a benchmark where the old leak was observable", leakCycles)
	}
}

func TestPublicLitmus(t *testing.T) {
	cfg := DefaultConfig(ProtocolHMG)
	prog := NewLitmus("mp").
		Thread(0,
			trace.Op{Kind: trace.Store, Addr: 0x100, Val: 9},
			trace.Op{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 0x200, Val: 1}).
		Thread(8,
			trace.Op{Kind: trace.LoadAcq, Scope: trace.ScopeSys, Addr: 0x200, Gap: 3_000_000},
			trace.Op{Kind: trace.Load, Addr: 0x100}).
		Build()
	res, err := RunLitmus(cfg, prog, WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := res.Value(1, 0); !ok || f != 1 {
		t.Fatalf("flag = %v, %v", f, ok)
	}
	if d, ok := res.Value(1, 1); !ok || d != 9 {
		t.Fatalf("data = %v, %v", d, ok)
	}
}

func TestNewSystemOptions(t *testing.T) {
	cfg := LitmusConfig(ProtocolHMG)
	events := 0
	sys, err := NewSystem(cfg, WithInvariantChecks(), WithEventSink(func(Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateBenchmark("nw-16K", cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("event sink saw no events")
	}
	if err := sys.CheckErr(); err != nil {
		t.Fatalf("invariant violations on trunk: %v", err)
	}
	if v := sys.Violations(); len(v) != 0 {
		t.Fatalf("Violations() = %d, want 0", len(v))
	}

	// Plain construction must keep working and report nothing.
	plain, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Violations() != nil || plain.CheckErr() != nil {
		t.Fatal("plain system should have no checker state")
	}
}
