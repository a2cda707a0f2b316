#!/usr/bin/env bash
# Repo verification, in named tiers:
#
#   scripts/verify.sh                 # every tier, in the order below
#   scripts/verify.sh lint store      # just the named tiers, in that order
#
# Tiers:
#
#   build        go build ./...
#   vet          go vet ./...
#   lint         builds cmd/hmglint and runs the full analyzer suite
#                (determinism, eventemit, exhaustive, hotalloc,
#                readonlyhooks, speccover) over the module, both
#                standalone and through `go vet -vettool` (the
#                unitchecker protocol threads facts along import edges,
#                so both paths must stay green); any finding fails the
#                tier via the tool's nonzero exit. It then proves the two
#                interprocedural analyzers have teeth: in a scratch copy
#                of the repo, an injected hot-path allocation and a
#                dropped Table I spec rule must each fail with exit 2
#                naming the responsible analyzer.
#   test         go test ./...
#   race         the whole module at -short scale under -race (the
#                experiment suites are ~10x slower under -race) plus the
#                full experiments package, which carries the concurrent
#                campaign runner and must stay race-clean at full scale.
#   spec         cmd/hmgspec: the machine-readable Table I is validated,
#                exhaustively enumerated on the small model, and diffed
#                against proto.DirCtrl — then each deliberate
#                proto.Mutation bit is injected and the diff must FAIL,
#                proving the tier has teeth.
#   conformance  the hmgcheck sweep: seeded litmus cases plus the
#                benchmark suite under every protocol (and NHCC and HMG
#                again with the write-back L2 option) with the invariant
#                checker attached.
#   scaling      one benchmark on an 8x8 machine (64 global GPMs — past
#                the 32-id inline sharer word, so flat NHCC runs on the
#                promoted sparse sharer sets) under the invariant
#                checker, for both the flat and hierarchical hardware
#                protocols.
#   fuzz         a short burst of coverage-guided litmus fuzzing.
#   store        the persistent content-addressed result store
#                (internal/resstore) through its acceptance flow at full
#                campaign scope: a cold `hmgbench -fig all -scale 0.25
#                -cachedir` populates the store, a warm rerun must execute
#                zero simulations and emit byte-identical tables, and a
#                deliberately truncated record must be re-simulated (to
#                identical bytes again), never trusted. The store lives in
#                $HMG_RESSTORE_DIR when set, else in a scratch directory.
#   perf         cmd/hmgperf against the newest committed BENCH_*.json
#                baseline: simulated cycles, event counts, and
#                allocs/event must match (the simulator is deterministic;
#                allocs/event may not grow past a small tolerance);
#                wall-clock drift only warns. It uses the same store
#                directory as the store tier and cross-checks every
#                record it touches against the freshly measured
#                cycles/events — a second determinism tripwire when the
#                store tier ran first.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
RESSTORE_DIR="${HMG_RESSTORE_DIR:-$SCRATCH/resstore}"

tier_build() {
  echo "== go build"
  go build ./...
}

tier_vet() {
  echo "== go vet"
  go vet ./...
}

tier_lint() {
  local bin="$SCRATCH/hmglint"
  echo "== hmglint"
  go build -o "$bin" ./cmd/hmglint
  "$bin" ./...

  echo "== go vet -vettool=hmglint"
  go vet -vettool="$bin" ./...

  echo "== hmglint mutation self-tests (hotalloc, speccover)"
  local copy="$SCRATCH/lintcopy" out status
  mkdir -p "$copy"
  tar -c --exclude=.git . | tar -x -C "$copy"

  # An allocation on a Handle hot path must be caught by hotalloc.
  cat > "$copy/internal/gsim/zz_injected.go" <<'EOF'
package gsim

var zzSink []int

type zzHog struct{}

func (h *zzHog) Handle() { zzSink = append(zzSink, 1) }
EOF
  set +e
  out="$(cd "$copy" && "$bin" ./... 2>&1)"
  status=$?
  set -e
  if [ "$status" -ne 2 ] || ! echo "$out" | grep -q "hotalloc"; then
    echo "hotalloc missed an injected hot-path allocation (exit $status): the analyzer has no teeth" >&2
    echo "$out" >&2
    exit 1
  fi
  rm "$copy/internal/gsim/zz_injected.go"

  # Dropping a Table I rule must leave its DirCtrl arm unlicensed.
  sed -i '/State: StateV, Event: Invalidation/d' "$copy/internal/proto/spec/spec.go"
  set +e
  out="$(cd "$copy" && "$bin" ./... 2>&1)"
  status=$?
  set -e
  if [ "$status" -ne 2 ] || ! echo "$out" | grep -q "speccover"; then
    echo "speccover missed a dropped spec rule (exit $status): the analyzer has no teeth" >&2
    echo "$out" >&2
    exit 1
  fi
  rm -rf "$copy"
  echo "hmglint: both injected violations caught (teeth OK)"
}

tier_test() {
  echo "== go test"
  go test ./...
}

tier_race() {
  echo "== go test -race (short, all packages)"
  go test -race -short ./...

  echo "== go test -race (full, experiments)"
  go test -race ./internal/experiments/...
}

tier_spec() {
  echo "== Table I spec certification (hmgspec)"
  local bin="$SCRATCH/hmgspec"
  go build -o "$bin" ./cmd/hmgspec
  "$bin"
  for bit in 1 2 4; do
    if "$bin" -mutate "$bit" >/dev/null 2>&1; then
      echo "hmgspec -mutate $bit passed: the spec differ has no teeth" >&2
      exit 1
    fi
  done
  echo "hmgspec: all 3 mutation bits diverge from the spec (teeth OK)"
}

tier_conformance() {
  echo "== conformance sweep (hmgcheck)"
  go run ./cmd/hmgcheck -seeds 64 -scale 0.1
}

tier_scaling() {
  echo "== scaling smoke (8x8 machine, promoted sharer sets, checker attached)"
  go run ./cmd/hmgsim -bench bfs -protocol NHCC -topo 8x8 -scale 0.1 -check >/dev/null
  go run ./cmd/hmgsim -bench bfs -protocol HMG -topo 8x8 -scale 0.1 -check >/dev/null
  echo "scaling smoke: NHCC and HMG clean at 8x8 (64 global GPMs)"
}

tier_fuzz() {
  echo "== litmus fuzz smoke"
  go test ./internal/check -fuzz=FuzzLitmus -fuzztime=30s
}

tier_store() {
  echo "== campaign store tier (cold populate, warm serves all from disk, corruption re-simulates)"
  local bin="$SCRATCH/hmgbench" logs="$SCRATCH/store"
  go build -o "$bin" ./cmd/hmgbench
  mkdir -p "$logs"
  echo "store stamp: $("$bin" -storeversion)"
  "$bin" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
    > "$logs/cold.txt" 2> "$logs/cold.log"
  grep "^campaign:" "$logs/cold.log"
  "$bin" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
    > "$logs/warm.txt" 2> "$logs/warm.log"
  grep "^campaign:" "$logs/warm.log"
  cmp "$logs/cold.txt" "$logs/warm.txt"
  if ! grep -q "^campaign: 0 unique runs" "$logs/warm.log"; then
    echo "warm campaign simulated runs the store should have served" >&2
    exit 1
  fi
  # A damaged record must be a miss: truncate one and the rerun must
  # re-simulate exactly that run, to identical output bytes.
  # sed reads the whole list: head would exit early and, under
  # pipefail, fail the tier on sort's SIGPIPE once the list outgrows
  # the pipe buffer.
  local victim
  victim="$(find "$RESSTORE_DIR" -name '*.res' | sort | sed -n 1p)"
  truncate -s -1 "$victim"
  "$bin" -fig all -scale 0.25 -cachedir "$RESSTORE_DIR" -v \
    > "$logs/healed.txt" 2> "$logs/healed.log"
  grep "^campaign:" "$logs/healed.log"
  cmp "$logs/cold.txt" "$logs/healed.txt"
  if ! grep -q "^campaign: 1 unique runs" "$logs/healed.log"; then
    echo "truncated store record was not re-simulated (or took others with it)" >&2
    exit 1
  fi
  echo "store: warm campaign byte-identical with 0 simulations; truncated record re-simulated"
}

tier_perf() {
  echo "== perf gate (hmgperf, cross-checked against the store)"
  local baseline
  baseline="$(ls BENCH_*.json | sort | tail -1)"
  if [ -z "$baseline" ]; then
    echo "no committed BENCH_*.json baseline found" >&2
    exit 1
  fi
  go run ./cmd/hmgperf -against "$baseline" -cachedir "$RESSTORE_DIR"
}

TIERS=(build vet lint test race spec conformance scaling fuzz store perf)
if [ "$#" -eq 0 ]; then
  set -- "${TIERS[@]}"
fi
for tier in "$@"; do
  if ! declare -F "tier_$tier" >/dev/null; then
    echo "verify.sh: unknown tier \"$tier\" (known: ${TIERS[*]})" >&2
    exit 2
  fi
done
for tier in "$@"; do
  "tier_$tier"
done
echo "verify OK ($*)"
