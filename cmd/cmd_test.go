// Package cmd_test smoke-tests the command-line tools end to end: each
// binary is built with the local toolchain and driven through its main
// flows.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hmg/internal/experiments"
)

// build compiles one tool into a temp dir and returns the binary path.
func build(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestHmgtraceFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgtrace")
	list := run(t, bin, "list")
	if !strings.Contains(list, "nw-16K") || !strings.Contains(list, "mst") {
		t.Fatalf("list output missing benchmarks:\n%s", list)
	}
	file := filepath.Join(t.TempDir(), "t.hmgt")
	gen := run(t, bin, "gen", "-bench", "overfeat", "-scale", "0.1", "-o", file)
	if !strings.Contains(gen, "wrote") {
		t.Fatalf("gen output: %s", gen)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	info := run(t, bin, "info", file)
	if !strings.Contains(info, "overfeat") || !strings.Contains(info, "kernels:   2") {
		t.Fatalf("info output:\n%s", info)
	}
	fig3 := run(t, bin, "fig3", "-bench", "lstm", "-scale", "0.1")
	if !strings.Contains(fig3, "%") {
		t.Fatalf("fig3 output: %s", fig3)
	}
}

func TestHmgsimFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgsim")
	out := run(t, bin, "-bench", "overfeat", "-protocol", "HMG", "-scale", "0.1", "-sms", "4")
	for _, want := range []string{"benchmark:", "cycles:", "L2 hit rate:", "inter-GPU traffic:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hmgsim output missing %q:\n%s", want, out)
		}
	}
	// Unknown protocol errors out, listing the registry's names.
	out2, err := exec.Command(bin, "-bench", "overfeat", "-protocol", "nope").CombinedOutput()
	if err == nil {
		t.Fatal("hmgsim accepted unknown protocol")
	}
	if !strings.Contains(string(out2), "known:") || !strings.Contains(string(out2), "NoRemoteCaching") {
		t.Fatalf("unknown-protocol error does not list known protocols:\n%s", out2)
	}
	// Unknown benchmark errors out, listing the registry's names.
	out2, err = exec.Command(bin, "-bench", "nosuch", "-protocol", "HMG").CombinedOutput()
	if err == nil {
		t.Fatal("hmgsim accepted unknown benchmark")
	}
	if !strings.Contains(string(out2), "known:") || !strings.Contains(string(out2), "nw-16K") {
		t.Fatalf("unknown-benchmark error does not list known benchmarks:\n%s", out2)
	}
	// -check attaches the conformance checker and reports a clean run.
	out3 := run(t, bin, "-bench", "overfeat", "-protocol", "HMG", "-scale", "0.1", "-sms", "2", "-check")
	if !strings.Contains(out3, "conformance:       0 invariant violations") {
		t.Fatalf("hmgsim -check output missing conformance line:\n%s", out3)
	}
}

func TestHmgtraceUnknownBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgtrace")
	for _, args := range [][]string{
		{"gen", "-bench", "nosuch", "-o", filepath.Join(t.TempDir(), "x.hmgt")},
		{"fig3", "-bench", "nosuch"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("hmgtrace %v accepted unknown benchmark", args)
		}
		if !strings.Contains(string(out), "known:") || !strings.Contains(string(out), "nw-16K") {
			t.Fatalf("hmgtrace %v error does not list known benchmarks:\n%s", args, out)
		}
	}
}

// TestBadScaleRejected: every CLI that takes -scale rejects a value
// outside (0, 1], NaN included, with an error naming the scale instead
// of a panic or a silently tiny trace.
func TestBadScaleRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bins := map[string]string{}
	for _, tool := range []string{"hmgsim", "hmgtrace", "hmgcheck", "hmgbench"} {
		bins[tool] = build(t, "cmd/"+tool)
	}
	out := filepath.Join(t.TempDir(), "x.hmgt")
	for _, c := range []struct {
		tool string
		args []string
	}{
		{"hmgsim", []string{"-bench", "bfs", "-scale", "0"}},
		{"hmgsim", []string{"-bench", "bfs", "-scale", "NaN"}},
		{"hmgtrace", []string{"gen", "-bench", "bfs", "-scale", "0", "-o", out}},
		{"hmgtrace", []string{"gen", "-bench", "bfs", "-scale", "NaN", "-o", out}},
		{"hmgtrace", []string{"fig3", "-bench", "bfs", "-scale", "2"}},
		{"hmgcheck", []string{"-scale", "0", "-seeds", "0"}},
		{"hmgbench", []string{"-fig", "8", "-scale", "-1"}},
	} {
		got, err := exec.Command(bins[c.tool], c.args...).CombinedOutput()
		msg := string(got)
		if err == nil {
			t.Errorf("%s %v: exit 0, want an error\n%s", c.tool, c.args, msg)
			continue
		}
		if !strings.Contains(msg, "scale") || strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine") {
			t.Errorf("%s %v: want an error naming the scale, no panic:\n%s", c.tool, c.args, msg)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("hmgtrace gen wrote a trace for a rejected scale")
	}
}

// TestHmgcheckFlow drives the conformance sweep end to end: a small
// trunk sweep must pass, and the same sweep with an injected Table I
// mutation must fail — the harness proving its own teeth.
func TestHmgcheckFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgcheck")
	out := run(t, bin, "-seeds", "24", "-bench", "nw-16K", "-scale", "0.1")
	if !strings.Contains(out, "cases passed") {
		t.Fatalf("hmgcheck output:\n%s", out)
	}
	// The spec tier (enumerate + diff per table instantiation) rides
	// along in every sweep.
	if !strings.Contains(out, "4 spec)") {
		t.Fatalf("hmgcheck summary missing the spec tier:\n%s", out)
	}
	mutated, err := exec.Command(bin, "-seeds", "64", "-bench", "nw-16K", "-scale", "0.1", "-mutate", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("hmgcheck passed with an injected protocol bug:\n%s", mutated)
	}
	if !strings.Contains(string(mutated), "FAILED") {
		t.Fatalf("mutated sweep did not report failures:\n%s", mutated)
	}
	// The related-work baselines run under the checker too: CARVE's
	// benchmark tier, and GPU-VI-MCA's with its write-back leg.
	for name, want := range map[string]string{
		"CARVE":      "1 cases passed (0 litmus, 1 bench, 0 spec)",
		"GPU-VI-MCA": "2 cases passed (0 litmus, 2 bench, 0 spec)",
	} {
		if out := run(t, bin, "-protocol", name, "-bench", "nw-16K", "-scale", "0.1"); !strings.Contains(out, want) {
			t.Fatalf("hmgcheck -protocol %s: want %q in:\n%s", name, want, out)
		}
	}
	// Unknown names reuse the registry-derived errors.
	if out, err := exec.Command(bin, "-protocol", "nope").CombinedOutput(); err == nil || !strings.Contains(string(out), "known:") {
		t.Fatalf("hmgcheck unknown protocol: err=%v out=%s", err, out)
	}
	if out, err := exec.Command(bin, "-bench", "nosuch").CombinedOutput(); err == nil || !strings.Contains(string(out), "known:") {
		t.Fatalf("hmgcheck unknown benchmark: err=%v out=%s", err, out)
	}
}

// TestHmgspecFlow drives the Table I spec certifier end to end: the
// trunk run certifies both instantiations, -render emits the DESIGN.md
// fragment, and each deliberate proto.Mutation bit must make the
// spec↔implementation diff fail — the spec tier proving its own teeth.
func TestHmgspecFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgspec")
	out := run(t, bin)
	for _, want := range []string{
		"NHCC: 9 states, 104 transitions, 0 violations",
		"HMG: 9 states, 93 transitions, 0 violations",
		"0 divergences",
		"certified",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("hmgspec output missing %q:\n%s", want, out)
		}
	}
	rendered := run(t, bin, "-render")
	for _, want := range []string{
		"| State | Event | Guard | Next | Sharer set | Invalidations |",
		"| V | Invalidation | always | I | clear sharers | inv full sharer set |",
	} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("hmgspec -render missing %q:\n%s", want, rendered)
		}
	}
	for _, bit := range []string{"1", "2", "4"} {
		mutated, err := exec.Command(bin, "-mutate", bit).CombinedOutput()
		if err == nil {
			t.Fatalf("hmgspec -mutate %s passed with an injected protocol bug:\n%s", bit, mutated)
		}
		if !strings.Contains(string(mutated), "FAILED") || !strings.Contains(string(mutated), "divergences") {
			t.Fatalf("hmgspec -mutate %s did not report divergences:\n%s", bit, mutated)
		}
	}
}

func TestHmgbenchSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	out := run(t, bin, "-fig", "cost")
	if !strings.Contains(out, "55.00") {
		t.Fatalf("hmgbench cost output:\n%s", out)
	}
	md := run(t, bin, "-fig", "cost", "-format", "md")
	if !strings.Contains(md, "| bits per entry | 55.00 |") {
		t.Fatalf("markdown output:\n%s", md)
	}
	csv := run(t, bin, "-fig", "cost", "-format", "csv")
	if !strings.Contains(csv, "bits per entry,55.00") {
		t.Fatalf("csv output:\n%s", csv)
	}
	if _, err := exec.Command(bin, "-fig", "nosuch").CombinedOutput(); err == nil {
		t.Fatal("hmgbench accepted unknown figure")
	}
}

// TestHmgbenchFigureRegistrySync pins hmgbench's user-facing figure
// lists to the experiments.Figures registry: the unknown-figure error
// (which prints the known set), the -fig flag usage, and the package
// doc comment must all name exactly the registry's figures.
func TestHmgbenchFigureRegistrySync(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	names := experiments.FigureNames()
	if len(names) != 22 {
		t.Fatalf("registry has %d figures, want 22", len(names))
	}

	bin := build(t, "cmd/hmgbench")
	out, err := exec.Command(bin, "-fig", "nosuch").CombinedOutput()
	if err == nil {
		t.Fatal("hmgbench accepted unknown figure")
	}
	_, known, ok := strings.Cut(string(out), "known: ")
	if !ok {
		t.Fatalf("unknown-figure error does not list known figures:\n%s", out)
	}
	got := strings.Split(strings.TrimSuffix(strings.TrimSpace(known), ")"), ",")
	want := append(append([]string{}, names...), "all")
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("known-figure list out of sync with registry:\n got %v\nwant %v", got, want)
	}

	usage, _ := exec.Command(bin, "-help").CombinedOutput()
	src, err := os.ReadFile(filepath.Join("hmgbench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("no package clause in hmgbench/main.go")
	}
	for _, n := range names {
		if !strings.Contains(string(usage), n) {
			t.Errorf("-fig flag usage does not mention figure %q", n)
		}
		if !strings.Contains(doc, n+",") && !strings.Contains(doc, n+".") {
			t.Errorf("hmgbench doc comment does not list figure %q", n)
		}
	}
}

// TestHmgbenchJobsDeterminism: parallel prewarming must not change the
// tables — -jobs 8 output is byte-identical to -jobs 1.
func TestHmgbenchJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	serial := run(t, bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-jobs", "1")
	parallel := run(t, bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-jobs", "8")
	if !bytes.Equal([]byte(serial), []byte(parallel)) {
		t.Fatalf("-jobs 8 output differs from -jobs 1:\n--- jobs=1\n%s\n--- jobs=8\n%s", serial, parallel)
	}
}

// TestHmgbenchStoreFlow drives the persistent result store end to end:
// a cold campaign populates -cachedir, a warm rerun must serve every
// run from disk (zero simulations) with byte-identical tables, and a
// deliberately truncated record must be re-simulated — again to
// identical bytes — never trusted. scripts/verify.sh repeats this flow
// at the full acceptance scale (-fig all -scale 0.25); this test keeps
// the same contract cheap enough for the tier-1 suite.
func TestHmgbenchStoreFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	store := filepath.Join(t.TempDir(), "store")
	campaign := func() (string, string) {
		t.Helper()
		cmd := exec.Command(bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-cachedir", store, "-v")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hmgbench -cachedir: %v\n%s", err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	cold, coldLog := campaign()
	if !strings.Contains(coldLog, "disk misses") || strings.Contains(coldLog, " 0 disk writes") {
		t.Fatalf("cold campaign did not populate the store:\n%s", coldLog)
	}
	warm, warmLog := campaign()
	if warm != cold {
		t.Fatalf("warm tables differ from cold:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if !strings.Contains(warmLog, "campaign: 0 unique runs") {
		t.Fatalf("warm campaign simulated runs the store should have served:\n%s", warmLog)
	}
	if strings.Contains(warmLog, " 0 disk hits") || !strings.Contains(warmLog, "0 disk misses") {
		t.Fatalf("warm campaign not fully disk-served:\n%s", warmLog)
	}

	// Damage one record: exactly that run re-simulates, and the output
	// bytes still match the cold campaign's.
	victims, err := filepath.Glob(filepath.Join(store, "*", "*", "*.res"))
	if err != nil || len(victims) == 0 {
		t.Fatalf("no store records found: %v", err)
	}
	fi, err := os.Stat(victims[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victims[0], fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	healed, healedLog := campaign()
	if healed != cold {
		t.Fatalf("re-simulated tables differ from cold:\n--- cold\n%s\n--- healed\n%s", cold, healed)
	}
	if !strings.Contains(healedLog, "campaign: 1 unique runs") {
		t.Fatalf("truncated record was not re-simulated (or more than one run was):\n%s", healedLog)
	}

	// -storeversion prints the stamp that scopes the store — the CI
	// cache key.
	if got := strings.TrimSpace(run(t, bin, "-storeversion")); got != experiments.ModelVersion() {
		t.Fatalf("-storeversion = %q, want %q", got, experiments.ModelVersion())
	}
}

// TestHmglintFlow drives the linter through its exit-code contract:
// a clean module exits 0, an injected violation exits nonzero with the
// finding on the output, and an unknown analyzer name lists the known
// set (mirroring the registry errors of the other tools).
func TestHmglintFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmglint")

	// A tiny module using the simulator package names, once clean and
	// once with a wall-clock read injected into the engine package.
	writeModule := func(engineSrc string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "engine"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "engine", "engine.go"), []byte(engineSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	runIn := func(dir string, args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	clean := writeModule("package engine\n\nfunc Tick(now uint64) uint64 { return now + 1 }\n")
	if out, err := runIn(clean, "./..."); err != nil {
		t.Fatalf("hmglint on a clean module: %v\n%s", err, out)
	}

	dirty := writeModule("package engine\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().UnixNano() }\n")
	out, err := runIn(dirty, "./...")
	if err == nil {
		t.Fatalf("hmglint passed a wall-clock read in package engine:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("violation exit = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "time.Now reads the wall clock") || !strings.Contains(out, "determinism") {
		t.Fatalf("finding not reported:\n%s", out)
	}

	// Unknown analyzer selection mirrors proto.ParseKind: the error
	// names every registered analyzer.
	out, err = runIn(clean, "-analyzers", "bogus", "./...")
	if err == nil {
		t.Fatalf("hmglint accepted unknown analyzer:\n%s", out)
	}
	for _, name := range []string{"determinism", "eventemit", "exhaustive", "hotalloc", "readonlyhooks", "speccover"} {
		if !strings.Contains(out, name) {
			t.Fatalf("unknown-analyzer error does not list %q:\n%s", name, out)
		}
	}

	// -list names the same set for discoverability.
	listOut, err := runIn(clean, "-list")
	if err != nil {
		t.Fatalf("hmglint -list: %v\n%s", err, listOut)
	}
	for _, name := range []string{"determinism", "eventemit", "exhaustive", "hotalloc", "readonlyhooks", "speccover"} {
		if !strings.Contains(listOut, name) {
			t.Fatalf("-list output missing %q:\n%s", name, listOut)
		}
	}

	// -json emits one machine-readable object per finding on stdout
	// (the count line stays on stderr, so stdout is pure JSON).
	jsonCmd := exec.Command(bin, "-json", "./...")
	jsonCmd.Dir = dirty
	var stdout, stderr bytes.Buffer
	jsonCmd.Stdout, jsonCmd.Stderr = &stdout, &stderr
	err = jsonCmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-json violation exit = %v, want exit status 2\n%s%s", err, stdout.String(), stderr.String())
	}
	sawJSON := false
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var f struct{ Analyzer, Position, Message string }
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("-json emitted a non-JSON line %q: %v", line, err)
		}
		if f.Analyzer == "determinism" &&
			strings.Contains(f.Position, "engine.go") &&
			strings.Contains(f.Message, "time.Now reads the wall clock") {
			sawJSON = true
		}
	}
	if !sawJSON {
		t.Fatalf("-json output missing the determinism finding:\n%s", stdout.String())
	}
}

// TestHmglintVettool drives the go vet unitchecker protocol end to
// end: `go vet -vettool=hmglint` over a throwaway module must relay
// the finding text and the nonzero exit.
func TestHmglintVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmglint")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "engine"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package engine\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "engine", "engine.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed a wall-clock read:\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now reads the wall clock") {
		t.Fatalf("vettool finding not relayed by go vet:\n%s", out)
	}
}

// TestProfileFlags drives -cpuprofile and -memprofile on the two
// measuring tools: each flag must write a non-empty profile and leave
// standard output byte-identical to an unprofiled run.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	stdout := func(bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\n%s", bin, args, err, errOut.String())
		}
		return out.String()
	}
	for _, tc := range []struct {
		pkg  string
		args []string
	}{
		{"cmd/hmgbench", []string{"-fig", "9", "-scale", "0.1", "-sms", "4"}},
		{"cmd/hmgperf", []string{"-against", filepath.Join("..", "BENCH_2026-08-09.json")}},
	} {
		t.Run(filepath.Base(tc.pkg), func(t *testing.T) {
			bin := build(t, tc.pkg)
			plain := stdout(bin, tc.args...)
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
			profiled := stdout(bin, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tc.args...)...)
			if profiled != plain {
				t.Fatalf("profiling changed stdout:\n--- plain\n%s\n--- profiled\n%s", plain, profiled)
			}
			for _, p := range []string{cpu, mem} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Fatalf("profile %s missing or empty: %v", filepath.Base(p), err)
				}
			}
		})
	}
}
