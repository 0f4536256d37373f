#!/usr/bin/env bash
# Local CI: everything must pass before a change merges.
#   ./ci.sh            full gate (build, tests, benchmark package tests, clippy, fmt, commit-path smoke)
#   ./ci.sh fast       skip the release build, the benchmark package and the smoke benches
#   ./ci.sh smoke      only the commit-path smoke stages (tiny benches + two-process wire + force audit)
#   ./ci.sh loc        report non-test lines per crate, for the workspace and per vendor/ stand-in (a report, not a gate)
#   ./ci.sh schema_check  only the message-schema check (no hand-written codec or op names)
#   ./ci.sh metrics_check only the counter-schema check (no hand-written snapshot, delta or counter render)
#   ./ci.sh oracle_check  only the oracle check (no hand-rolled §3.3 audit or drain loop outside datalinks::audit)
#   ./ci.sh undo_check    only the undo check (no discarded WAL append or savepoint rollback in minidb or hostdb)
#   ./ci.sh obs_check     only the observability check (one event ring, JSON module, span emitter, bundle writer)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# Exercise the commit path end to end with tiny parameters: the E5
# sync-commit scenario (telemetry watchdog armed on its healthy arm), a
# two-point E11 group-commit sweep, and a small E12 dedicated-vs-pooled
# agent sweep. Bench JSON summaries land in target/ so the tree stays
# clean.
smoke() {
  seam_check
  undo_check
  schema_check
  metrics_check
  oracle_check
  obs_check
  step "fault-matrix smoke: seed slice of the fault-injection sweep"
  FAULT_MATRIX_SEEDS=2 cargo test -q --offline -p datalinks --test fault_matrix
  step "snapshot-history slice: seeded concurrent MVCC histories against the model"
  MINIDB_MVCC_SEEDS=32 cargo test -q --offline --release -p minidb --test snapshot_history
  step "observability smoke: dlfmtop status surfaces + Perfetto export"
  # Stands up a live deployment, renders both status pages, and validates
  # the Chrome-trace export; the example exits nonzero on any failure.
  cargo run -q --offline --release -p datalinks --example dlfmtop
  step "telemetry smoke: dlfmtop --watch (bounded live mode, zero alerts)"
  # Live sampler over healthy traffic for three ticks; exits nonzero on
  # any false-positive health alert.
  cargo run -q --offline --release -p datalinks --example dlfmtop -- --watch 0.3 --ticks 3
  step "commit-path smoke: e11_group_commit (tiny sweep)"
  RUN_SECS=0.2 CLIENTS=8 FORCE_MS=1 BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e11_group_commit
  step "commit-path smoke: e5_sync_commit (watchdog armed)"
  # WATCHDOG=1 samples the sync arm with the stock rules; e5 exits
  # nonzero if the healthy arm trips any rule.
  WATCHDOG=1 BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e5_sync_commit
  step "agent-model smoke: e12_agent_scaling (tiny sweep)"
  RUN_SECS=0.2 CLIENTS=8 BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e12_agent_scaling
  step "read-path smoke: e13_read_heavy (tiny sweep, MVCC vs 2PL)"
  RUN_SECS=0.2 CLIENTS=4 BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e13_read_heavy
  step "key-lock smoke: e2_next_key + e4_escalation (tiny runs)"
  # dlfm-bench runs with next-key locking off and never escalates: E2
  # takes key and next-key locks, E4 escalates row locks to a table lock.
  # (E2's deadlock victims each log a warning by design.)
  RUN_SECS=0.2 CLIENTS=4 BENCH_METRICS=0 BENCH_JSON_DIR=target DLFM_LOG=error \
    cargo run -q --offline --release -p bench --bin e2_next_key
  RUN_SECS=0.2 CLIENTS=4 BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e4_escalation
  step "shard smoke: e14_shard_scaling (tiny sweep + live migration)"
  RUN_SECS=0.3 CLIENTS=16 SHARDS=2 MIGRATE_CLIENTS=8 FORCE_MS=1 \
    BENCH_METRICS=0 BENCH_JSON_DIR=target \
    cargo run -q --offline --release -p bench --bin e14_shard_scaling
  wire_smoke
  shard_smoke
  force_audit
}

# One participant seam: in hostdb only the participant module reads a
# DLFM reply or sends on a DLFM connection, so every reply meets the same
# failure rules (coordinator, resolver and statement round alike).
seam_check() {
  step "seam check: DLFM replies and calls only in hostdb/src/participant.rs"
  if grep -nE 'DlfmResponse::|\.(call|call_timeout|start|post|ping)\(' crates/hostdb/src/*.rs \
    | grep -v '^crates/hostdb/src/participant.rs:'; then
    echo "seam check: the lines above talk to a DLFM outside the participant module"
    exit 1
  fi
}

# No discarded undo: a log record or a savepoint rollback whose result is
# thrown away is a write redo replays although it was undone, or a
# transaction the host keeps although minidb rolled it back. Non-test code
# of minidb and hostdb may not `let _ =` a WAL append or a `rollback_to`
# (a statement may span lines; it is read up to its `;`).
undo_check() {
  step "undo check: no discarded WAL append or savepoint rollback in minidb or hostdb"
  local found
  found="$(find crates/minidb/src crates/hostdb/src -name '*.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
        !t && /let _ =/ { at = FNR; s = $0; while (s !~ /;/ && (getline line) > 0) { sub(/^[ \t]+/, "", line); s = s line }
          if (s ~ /wal\.(append|compensate)\(|\.rollback_to\(/) print FILENAME ":" at ": " s }')"
  if [[ -n "$found" ]]; then
    echo "$found"
    echo "undo check: the lines above discard a log append or a savepoint rollback"
    exit 1
  fi
}

# One message schema: every DLFM message is declared once, in
# dlfm/src/api.rs through `dlrpc::wire_schema!`, which writes its encoder,
# decoder and op name. Only dlfm/src/wire.rs, which holds the batch rule
# the schema cannot state, may touch the codec primitives; a hand-written
# encoder, decoder or op-name table anywhere else in dlfm or hostdb would
# be a second copy of a message that must agree with the first.
schema_check() {
  step "schema check: codec primitives only in dlfm/src/wire.rs, no hand-written op_name"
  local prims='put_(u8|u16|u32|u64|i64|str|bool)\b|\.(u8|u16|u32|u64|i64|bool|str|peek_u8)\(\)'
  if grep -rnE "$prims" crates/dlfm/src crates/hostdb/src | grep -v '^crates/dlfm/src/wire.rs:'; then
    echo "schema check: the lines above encode or decode by hand outside the schema"
    exit 1
  fi
  if grep -rn 'fn op_name' crates/dlfm/src crates/hostdb/src; then
    echo "schema check: op names come from the schema (wire_schema! writes op_name)"
    exit 1
  fi
}

# One counter schema: every counter, gauge cell and histogram a struct
# owns is declared once, in an `obs::counters!` table that writes the
# struct, its snapshot, `delta` and rendering. A hand-written `fn delta(`
# or `…Snapshot {` in non-test code outside obs would be a second copy of
# a table that must agree with the first; an `r.counter(`/`r.histogram(` in either
# metrics_text() surface would render by hand what a table renders — only
# gauges read from live state are rendered there.
metrics_check() {
  step "metrics check: counters declared once, through obs::counters!"
  local copies
  copies="$(find crates/*/src -name '*.rs' -not -path 'crates/obs/*' -print0 \
    | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
        !t && /fn delta\(|[A-Za-z]+Snapshot \{/ && !/=> [A-Za-z]+Snapshot \{/ { print FILENAME ":" FNR ": " $0 }')"
  if [[ -n "$copies" ]]; then
    echo "$copies"
    echo "metrics check: the lines above copy a counter table by hand (declare it in obs::counters!)"
    exit 1
  fi
  if grep -nE 'r\.(counter|histogram)\(' crates/hostdb/src/telemetry.rs crates/dlfm/src/server.rs; then
    echo "metrics check: the lines above render a counter or histogram by hand (its table renders it)"
    exit 1
  fi
}

# One §3.3 oracle: the end-state audit and the drain loop that precedes it
# live in crates/datalinks/src/audit.rs (outside the directories searched
# here). A drain or in-doubt helper in the integration tests or the bench
# binaries, or a bench binary counting dfm_xact rows itself, would be a
# second copy of the oracle that checks a different subset.
oracle_check() {
  step "oracle check: §3.3 audits and drain loops only in datalinks::audit"
  if grep -rnE 'fn (resolve_until_clean|drain|xact_total|linked_shards|routed_shard)\b' \
    tests crates/bench/src/bin; then
    echo "oracle check: the lines above hand-roll a drain or audit helper (use datalinks::Audit)"
    exit 1
  fi
  if grep -rn 'FROM dfm_xact' crates/bench/src/bin; then
    echo "oracle check: the lines above count in-doubt work by hand (use datalinks::Audit)"
    exit 1
  fi
}

# Non-test lines of the Rust sources under the given directories, as
# `file:line: text` (up to each file's first #[cfg(test)], as loc counts).
nontest_src() {
  find "$@" -name '*.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }'
}

# One observability pipeline: one bounded slot ring (obs/src/ring.rs) under
# the span ring and the journal, one JSON escaper and number rule
# (obs/src/json.rs), one Chrome-trace "X" event emitter, and one bundle
# writer (obs::export::write_bundle) for incident bundles and autopsies. A
# second copy of any of them would drift from the first. (The RPC socket
# directory is not a bundle.)
obs_check() {
  step "obs check: one event ring, one JSON module, one span emitter, one bundle writer"
  local src found emitters
  src="$(nontest_src crates/*/src)"
  found="$(grep -F 'Box<[Mutex<Option<' <<<"$src" | grep -v '^crates/obs/src/ring.rs:'
    grep -E 'fn json_(escape|num)\b' <<<"$src" | grep -v '^crates/obs/src/json.rs:'
    grep -F 'create_dir_all' <<<"$src" | grep -Ev '^crates/(obs/src/export|rpc/src/socket).rs:'
    true)"
  emitters="$(grep -F '\"ph\":\"X\"' <<<"$src" | grep '^crates/obs/src/' || true)"
  if [[ "$(grep -c . <<<"$emitters" || true)" -gt 1 ]]; then
    found+=$'\n'"$emitters"
  fi
  if grep . <<<"$found"; then
    echo "obs check: the lines above copy a ring, a JSON rule, a span emitter or a bundle writer"
    exit 1
  fi
}

# A shard's log may see only the one force per sub-transaction the
# protocol requires, the Prepare's: phase-2 commits (except a group
# deletion's, which this workload never runs), daemons, aborts and chunk
# commits commit lazily. The coordinator log forces only the commit
# decision — End records harden with the next decision's force — so it
# may see at most one force per two-phase commit. A traced `--quick` run
# of the forced two-shard workload counts both — and fails by itself on a
# broken audit or crash/restart check — so a background force creeping
# back onto either log fails here, not in a benchmark run. (The 0.02 is
# slack, not a budget: on a healthy run the two sides are equal.)
force_audit() {
  step "force audit: shard log forces <= 2 x, coordinator forces <= 1 x two-phase commits per transaction"
  cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
  local out forces coord twopc
  out="$(benchmark/target/release/dlfm-bench --quick --workload commit_forced_2shard --trace 1 \
    | tail -n 1)"
  metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p" <<<"$out"; }
  forces="$(metric minidb.dlfm_wal_forces_per_txn)"
  coord="$(metric hostdb.coord_forces_per_txn)"
  twopc="$(metric hostdb.twopc_commits_per_txn)"
  echo "dlfm_wal_forces_per_txn=$forces coord_forces_per_txn=$coord twopc_commits_per_txn=$twopc"
  awk -v f="$forces" -v c="$twopc" 'BEGIN { exit !(f != "" && c > 0 && f <= 2 * c + 0.02) }' \
    || { echo "force audit: a force beyond the Prepare reached a shard log"; exit 1; }
  awk -v f="$coord" -v c="$twopc" 'BEGIN { exit !(f != "" && c > 0 && f <= c + 0.02) }' \
    || { echo "force audit: a force beyond the commit decision reached the coordinator log"; exit 1; }
}

# Two real OS processes over a real kernel socket: `dlfmd` (the standalone
# DLFM daemon, telemetry watchdog armed) serves a Unix-domain socket and a
# host workload dials in from a second process. The daemon treats stdin
# EOF as its shutdown signal and exits nonzero if any watchdog health rule
# fired during the run, so `wait` enforces both a clean run and a clean
# shutdown.
wire_smoke() {
  step "wire smoke: two-process dlfmd + host workload over a Unix socket"
  local sock out dpid
  sock="$(mktemp -u /tmp/dlfmd-ci-XXXXXX.sock)"
  out="$(mktemp)"
  mkfifo "$sock.stdin"
  cargo build -q --offline --release -p dlfm --bin dlfmd
  cargo build -q --offline --release -p datalinks --example wire_host_smoke
  target/release/dlfmd --listen "unix://$sock" --seed-files 32 --watch \
    <"$sock.stdin" >"$out" &
  dpid=$!
  exec 9>"$sock.stdin" # hold the daemon's stdin open while the client runs
  for _ in $(seq 1 100); do
    grep -q READY "$out" 2>/dev/null && break
    sleep 0.1
  done
  grep -q READY "$out" || { echo "dlfmd never came up:"; cat "$out"; exit 1; }
  # The client ends by pulling a merged fleet trace over the telemetry
  # RPC; it exits nonzero on malformed JSON or zero remote spans, and the
  # sentinel grep makes sure that stage actually ran.
  target/release/examples/wire_host_smoke "unix://$sock" 32 | tee "$out.client"
  grep -q 'FLEET_TRACE ok' "$out.client" \
    || { echo "wire smoke: no merged fleet trace pulled"; exit 1; }
  exec 9>&- # stdin EOF: clean shutdown
  wait "$dpid"
  rm -f "$sock" "$sock.stdin" "$out" "$out.client"
}

# Two shards, three OS processes: two `dlfmd` daemons (telemetry watchdog
# armed) each serve a Unix-domain socket, and a host process enables the
# hash-routing ring over both, migrating the seeded directory between the
# daemons mid-run (ExportLinks/ImportLinks over the wire). Daemon A runs
# the default dedicated agent model, daemon B the pooled one, so both
# settings serve a second process. Both daemons exit nonzero on watchdog
# alerts or an unclean shutdown.
shard_smoke() {
  step "shard smoke: two dlfmd daemons + host ring with a live prefix migration"
  local sock_a sock_b out_a out_b pid_a pid_b
  sock_a="$(mktemp -u /tmp/dlfmd-ci-a-XXXXXX.sock)"
  sock_b="$(mktemp -u /tmp/dlfmd-ci-b-XXXXXX.sock)"
  out_a="$(mktemp)"
  out_b="$(mktemp)"
  mkfifo "$sock_a.stdin" "$sock_b.stdin"
  cargo build -q --offline --release -p dlfm --bin dlfmd
  cargo build -q --offline --release -p datalinks --example shard_host_smoke
  target/release/dlfmd --listen "unix://$sock_a" --seed-files 16 --watch \
    <"$sock_a.stdin" >"$out_a" &
  pid_a=$!
  target/release/dlfmd --listen "unix://$sock_b" --seed-files 16 --pooled 4:64 --watch \
    <"$sock_b.stdin" >"$out_b" &
  pid_b=$!
  exec 7>"$sock_a.stdin" 8>"$sock_b.stdin"
  for _ in $(seq 1 100); do
    grep -q READY "$out_a" 2>/dev/null && grep -q READY "$out_b" 2>/dev/null && break
    sleep 0.1
  done
  grep -q READY "$out_a" || { echo "dlfmd A never came up:"; cat "$out_a"; exit 1; }
  grep -q READY "$out_b" || { echo "dlfmd B never came up:"; cat "$out_b"; exit 1; }
  target/release/examples/shard_host_smoke "unix://$sock_a" "unix://$sock_b" 16 \
    | tee "$out_a.client"
  grep -q 'FLEET_TRACE ok' "$out_a.client" \
    || { echo "shard smoke: no merged fleet trace pulled"; exit 1; }
  # Fleet view over both live daemons: per-shard rows scraped over the
  # telemetry RPC (the example exits nonzero if the table breaks).
  cargo build -q --offline --release -p datalinks --example dlfmtop
  target/release/examples/dlfmtop --fleet "unix://$sock_a" "unix://$sock_b" --ticks 1
  exec 7>&- 8>&- # stdin EOF on both: clean shutdown
  wait "$pid_a"
  wait "$pid_b"
  # Graceful degradation: with both daemons gone every shard must render
  # as a DOWN row — and the fleet view must still exit 0.
  target/release/examples/dlfmtop --fleet "unix://$sock_a" "unix://$sock_b" --ticks 1 \
    | tee "$out_b.client"
  grep -q '2 shards, 2 down' "$out_b.client" \
    || { echo "shard smoke: dead daemons did not render as DOWN rows"; exit 1; }
  rm -f "$sock_a" "$sock_b" "$sock_a.stdin" "$sock_b.stdin" \
    "$out_a" "$out_b" "$out_a.client" "$out_b.client"
}

# Non-test lines per crate and for the workspace: every line of each
# crates/*/src/**/*.rs before its first `#[cfg(test)]`. The design aim
# ("the same behaviour from the least code") is judged by this number.
# The vendored stand-ins (vendor/*) are counted the same way and printed
# below the total, outside it, so the workspace total stays comparable.
src_lines() {
  find "$1/src" -name '*.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
}

loc() {
  step "non-test lines: {crates,vendor}/*/src/**/*.rs up to each file's first #[cfg(test)]"
  local dir n total=0
  for dir in crates/*/; do
    n="$(src_lines "$dir")"
    printf '%-10s %6d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
  done
  printf '%-10s %6d\n' workspace "$total"
  for dir in vendor/*/; do
    printf '%-22s %6d\n' "vendor/$(basename "$dir")" "$(src_lines "$dir")"
  done
}

if [[ "${1:-}" == "loc" ]]; then
  loc
  exit 0
fi

if [[ "${1:-}" == "schema_check" ]]; then
  schema_check
  step "OK"
  exit 0
fi

if [[ "${1:-}" == "metrics_check" ]]; then
  metrics_check
  step "OK"
  exit 0
fi

if [[ "${1:-}" == "undo_check" ]]; then
  undo_check
  step "OK"
  exit 0
fi

if [[ "${1:-}" == "oracle_check" ]]; then
  oracle_check
  step "OK"
  exit 0
fi

if [[ "${1:-}" == "obs_check" ]]; then
  obs_check
  step "OK"
  exit 0
fi

if [[ "${1:-}" == "smoke" ]]; then
  smoke
  step "OK"
  exit 0
fi

if [[ "${1:-}" != "fast" ]]; then
  step "release build"
  cargo build --release --offline --workspace
fi

seam_check
undo_check
schema_check
metrics_check
oracle_check
obs_check

step "tests"
cargo test -q --offline --workspace

if [[ "${1:-}" != "fast" ]]; then
  # The benchmark is a package of its own (own workspace and lock file)
  # built against these crates: a crate change that breaks it must fail
  # here, not in whoever runs BENCHMARK.json next. Its probes and crash
  # check speak the plain one-request-per-call DLFM protocol (BeginTxn,
  # LinkFile, Prepare ...), which therefore stays valid beside Batch.
  step "benchmark package tests (audit oracle, generator, --quick run)"
  cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
fi

step "clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "rustfmt check"
cargo fmt --check

if [[ "${1:-}" != "fast" ]]; then
  smoke
fi

step "OK"
