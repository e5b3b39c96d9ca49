#!/usr/bin/env bash
# Tier-1 gate, provably network-free: the workspace is 100 % path
# dependencies (enforced by tests/hermetic.rs), so everything below runs
# with --offline and CARGO_NET_OFFLINE as a belt-and-braces guarantee.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline
# --workspace is a superset of the gate's `cargo test -q`: it also runs
# every member crate's unit, integration and doc tests.
cargo test -q --offline --workspace
# Lints are part of the gate: warnings are build breaks.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc warnings are build breaks too: a doc link to a deleted or
# private item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
# Bench bodies must at least execute (smoke mode runs each body once
# and measures nothing), so every bench stays runnable. The pass runs
# with tracing live so the disabled→enabled flip is exercised in CI.
# The trace summary prints only nonzero metrics, so any
# `*.no_convergence` line means a campaign-level solver failure.
smoke_log="$(mktemp)"
fault_log="$(mktemp)"
fault_clean="$(mktemp -d)"
fault_armed="$(mktemp -d)"
sched_serial="$(mktemp -d)"
sched_two="$(mktemp -d)"
sched_five="$(mktemp -d)"
serve_dir="$(mktemp -d)"
campaign_dir="$(mktemp -d)"
bench_dir="$(mktemp -d)"
trap 'rm -f "$smoke_log" "$fault_log"; \
     rm -rf "$fault_clean" "$fault_armed" "$sched_serial" "$sched_two" "$sched_five" \
            "$serve_dir" "$campaign_dir" "$bench_dir"' EXIT
RLCKIT_BENCH_SMOKE=1 RLCKIT_TRACE=summary cargo bench --offline --workspace 2>&1 \
  | tee "$smoke_log"
if grep -q '\.no_convergence' "$smoke_log"; then
  echo "tier-1 gate: FAIL — nonzero no_convergence counter in bench smoke" >&2
  exit 1
fi

# Fault-injection smoke: arm deterministic injection (fixed seed, 10 %
# rate) over the Fig. 4-8 campaign grids. Every campaign must complete
# with the retry ladder absorbing every injection — the armed trace
# summary must show a nonzero `*.injected_faults` family and no
# `*.no_convergence` counter — and the emitted CSVs must be
# byte-identical to a clean run of the same bin.
for bin in fig04_lcrit fig05_hopt_ratio fig06_kopt_ratio fig07_delay_ratio fig08_variation; do
  RLCKIT_RESULTS_DIR="$fault_clean" \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$fault_armed" RLCKIT_FAULTS=2001:0.1 RLCKIT_TRACE=summary \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null 2>"$fault_log"
  if ! grep -q 'injected_faults' "$fault_log"; then
    echo "tier-1 gate: FAIL — $bin took no injected faults (harness disarmed?)" >&2
    exit 1
  fi
  if grep -q '\.no_convergence' "$fault_log"; then
    echo "tier-1 gate: FAIL — $bin surfaced no_convergence under injection" >&2
    exit 1
  fi
  if ! cmp -s "$fault_clean/$bin.csv" "$fault_armed/$bin.csv"; then
    echo "tier-1 gate: FAIL — $bin CSV drifted under fault injection" >&2
    exit 1
  fi
done

# Scheduler identity: campaign CSVs must be byte-identical across the
# serial reference and guided work-stealing execution at two thread
# counts (each `cargo run` is a fresh process, so RLCKIT_THREADS is
# honored under its once-per-process semantics).
for bin in fig04_lcrit fig07_delay_ratio; do
  RLCKIT_RESULTS_DIR="$sched_serial" RLCKIT_THREADS=1 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$sched_two" RLCKIT_THREADS=2 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$sched_five" RLCKIT_THREADS=5 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  for dir in "$sched_two" "$sched_five"; do
    if ! cmp -s "$sched_serial/$bin.csv" "$dir/$bin.csv"; then
      echo "tier-1 gate: FAIL — $bin CSV drifted between serial and guided execution" >&2
      exit 1
    fi
  done
done

# Serving smoke: boot the daemon twice over one seeded loadgen mix
# (cold boot saves a warm-start snapshot; the second boot reloads it).
# Responses must be byte-identical across the runs once the documented
# `*_ns` wall-clock fields are stripped, the drained flight-recorder
# event streams must be byte-identical once `t_ns` is stripped, the
# trailing stats barrier must show memo hits, and the solver must never
# fail to converge while serving.
strip_ns() { sed 's/"[a-z0-9_]*_ns":[0-9]*,\{0,1\}//g' "$1"; }
cargo run --release --offline -q -p rlckit-bench --bin loadgen -- --emit=120 \
  > "$serve_dir/mix.jsonl"
for run in a b; do
  RLCKIT_TRACE=summary cargo run --release --offline -q -p rlckit-serve -- \
    --stdin --workers 4 --warm-grid 5 --snapshot "$serve_dir/memo.snapshot" \
    --trace-events "$serve_dir/$run.events.jsonl" \
    < "$serve_dir/mix.jsonl" > "$serve_dir/$run.out" 2> "$serve_dir/$run.log"
  if grep -q '\.no_convergence' "$serve_dir/$run.log"; then
    echo "tier-1 gate: FAIL — rlckit-serve surfaced no_convergence (run $run)" >&2
    exit 1
  fi
done
if ! cmp -s <(strip_ns "$serve_dir/a.out") <(strip_ns "$serve_dir/b.out"); then
  echo "tier-1 gate: FAIL — rlckit-serve responses drifted between two seeded runs" >&2
  exit 1
fi
if ! cmp -s <(strip_ns "$serve_dir/a.events.jsonl") <(strip_ns "$serve_dir/b.events.jsonl"); then
  echo "tier-1 gate: FAIL — flight-recorder event streams drifted between two seeded runs" >&2
  exit 1
fi
if ! grep -q 'warm-started' "$serve_dir/b.log"; then
  echo "tier-1 gate: FAIL — second serve boot did not warm-start from the snapshot" >&2
  exit 1
fi
serve_hits="$(tail -n 1 "$serve_dir/a.out" | grep -o '"hits":[0-9]*' | cut -d: -f2)"
if ! awk -v x="${serve_hits:-0}" 'BEGIN { exit !(x > 0) }'; then
  echo "tier-1 gate: FAIL — serve smoke took no memo hits (stats hits=${serve_hits:-missing})" >&2
  exit 1
fi
# The extended stats response must carry the new observability fields:
# a barrier stats is deterministic, so in_flight is exactly 0, and the
# latency percentiles/uptime must at least be present (values are
# wall-clock and were stripped from the cmp above).
stats_line="$(tail -n 1 "$serve_dir/a.out")"
if ! echo "$stats_line" | grep -q '"in_flight":0'; then
  echo "tier-1 gate: FAIL — barrier stats did not report in_flight=0: $stats_line" >&2
  exit 1
fi
for field in uptime_ns p50_ns p95_ns p99_ns; do
  if ! echo "$stats_line" | grep -q "\"$field\":"; then
    echo "tier-1 gate: FAIL — stats response lost the $field field: $stats_line" >&2
    exit 1
  fi
done

# Trace-op smoke: the live observability snapshot must answer with the
# slowest-requests table and a nonzero drained-event count.
printf '%s\n' \
  '{"id":1,"op":"optimum","node":"100nm","l_nh_mm":1.5}' \
  '{"id":2,"op":"stats"}' \
  '{"id":3,"op":"trace"}' \
  | RLCKIT_TRACE=summary cargo run --release --offline -q -p rlckit-serve -- \
      --stdin --workers 2 > "$serve_dir/trace_op.out" 2>/dev/null
trace_line="$(tail -n 1 "$serve_dir/trace_op.out")"
if ! echo "$trace_line" | grep -q '"op":"trace"'; then
  echo "tier-1 gate: FAIL — trace op got no trace response: $trace_line" >&2
  exit 1
fi
if ! echo "$trace_line" | grep -q '"slowest":\[{"trace_id":'; then
  echo "tier-1 gate: FAIL — trace op reported an empty slow log: $trace_line" >&2
  exit 1
fi
if ! echo "$trace_line" | grep -qE '"events":[1-9]'; then
  echo "tier-1 gate: FAIL — trace op saw no flight-recorder events: $trace_line" >&2
  exit 1
fi

# Traceview smoke: the offline analyzer must parse a real capture, see
# a nonzero event count, and exit 0.
cargo run --release --offline -q -p rlckit-bench --bin rlckit-traceview -- \
  "$serve_dir/a.events.jsonl" > "$serve_dir/traceview.out"
if ! grep -qE '^[1-9][0-9]* events across [1-9]' "$serve_dir/traceview.out"; then
  echo "tier-1 gate: FAIL — rlckit-traceview read no events from the serve capture" >&2
  exit 1
fi
if ! grep -q '^total' "$serve_dir/traceview.out"; then
  echo "tier-1 gate: FAIL — rlckit-traceview printed no total-phase row" >&2
  exit 1
fi

# Concurrent-serving smoke: one daemon, three simultaneous TCP clients
# each replaying its own seeded hot-only mix (on-grid keys only, so no
# session changes the shared memo and even the stats barrier lines are
# reproducible). Every client's concurrent response stream must be
# byte-identical (modulo the documented `*_ns` fields) to replaying the
# same mix alone against the same daemon afterwards, the accept loop
# must survive with zero errors, and nobody may be refused for
# capacity.
cargo run --release --offline -q -p rlckit-serve -- \
  --tcp 127.0.0.1:0 --workers 4 --warm-grid 5 --idle-timeout-secs 30 \
  2> "$serve_dir/tcp.log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' "$serve_dir/tcp.log" \
    | grep -oE '[0-9]+$' || true)"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "tier-1 gate: FAIL — rlckit-serve --tcp never reported its listening port" >&2
  exit 1
fi
client_pids=()
for i in 1 2 3; do
  cargo run --release --offline -q -p rlckit-bench --bin loadgen -- \
    "--connect=127.0.0.1:$port" --emit=40 --seed=$((9000 + i)) --hot-only \
    > "$serve_dir/client$i.concurrent.out" &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  if ! wait "$pid"; then
    echo "tier-1 gate: FAIL — a concurrent loadgen client session failed" >&2
    exit 1
  fi
done
for i in 1 2 3; do
  cargo run --release --offline -q -p rlckit-bench --bin loadgen -- \
    "--connect=127.0.0.1:$port" --emit=40 --seed=$((9000 + i)) --hot-only \
    > "$serve_dir/client$i.solo.out"
  if ! cmp -s <(strip_ns "$serve_dir/client$i.concurrent.out") \
              <(strip_ns "$serve_dir/client$i.solo.out"); then
    echo "tier-1 gate: FAIL — client $i's concurrent responses drifted from its solo replay" >&2
    exit 1
  fi
  # Hot-only mix against a 5-point warm grid: the trailing stats
  # barrier must report a miss-free session.
  if ! tail -n 1 "$serve_dir/client$i.concurrent.out" | grep -q '"misses":0'; then
    echo "tier-1 gate: FAIL — client $i's hot-only session took memo misses" >&2
    exit 1
  fi
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [ "$(grep -c 'closed after' "$serve_dir/tcp.log")" -ne 6 ]; then
  echo "tier-1 gate: FAIL — daemon did not report all 6 client sessions closing" >&2
  cat "$serve_dir/tcp.log" >&2
  exit 1
fi
if grep -q 'accept error' "$serve_dir/tcp.log"; then
  echo "tier-1 gate: FAIL — concurrent smoke took accept errors" >&2
  exit 1
fi
if grep -q 'at capacity' "$serve_dir/tcp.log"; then
  echo "tier-1 gate: FAIL — concurrent smoke refused a client for capacity" >&2
  exit 1
fi

# Campaign supervisor smoke: the standard Fig. 4–8 sweep campaign,
# sharded across three supervised processes with a seeded kill schedule
# armed (every shard crash-loops a few generations before drawing a
# clean run). The supervisor must take at least one relaunch, degrade
# nothing, and the merged CSV must be byte-identical to the
# single-process run of the same campaign. The summary sink prints only
# nonzero counters, so a degraded grep match is a hard failure. The
# supervisor runs on its default poll interval, as users get it: shard
# exits wake it, so only the relaunch backoff is shortened.
cargo run --release --offline -q -p rlckit-campaign -- solo \
  --dir "$campaign_dir/solo" --out "$campaign_dir/solo.csv" 2>/dev/null
RLCKIT_SHARD_FAULTS=7001:0.2 RLCKIT_TRACE=summary \
  cargo run --release --offline -q -p rlckit-campaign -- run --shards 3 \
  --dir "$campaign_dir/run" --out "$campaign_dir/run.csv" \
  --backoff-ms 5 2> "$campaign_dir/run.log"
if ! grep -q 'campaign\.shard\.relaunched' "$campaign_dir/run.log"; then
  echo "tier-1 gate: FAIL — campaign smoke took no shard relaunches (shard faults disarmed?)" >&2
  exit 1
fi
if grep -q 'campaign\.shard\.degraded' "$campaign_dir/run.log"; then
  echo "tier-1 gate: FAIL — campaign smoke degraded a shard (restart budget too small for the seed?)" >&2
  exit 1
fi
if ! cmp -s "$campaign_dir/solo.csv" "$campaign_dir/run.csv"; then
  echo "tier-1 gate: FAIL — supervised campaign CSV drifted from the single-process run" >&2
  exit 1
fi

# Flight-recorder budget, measured fresh: the disabled-path `event!`
# must stay one relaxed load. A median above 25 ns means someone put
# work (a clock read, an allocation, a lock) in front of the enabled
# check, which taxes every request of every un-traced run. The solver
# and serving claims are tests (convergence_claims.rs,
# delay_solve_budget.rs, eviction_churn.rs) and perfbench's same-run
# ratios.
RLCKIT_RESULTS_DIR="$bench_dir" cargo bench --offline -q -p rlckit-bench \
  --bench trace_overhead -- event_record_disabled >/dev/null
event_off="$(grep -o '"median":[0-9.]*' "$bench_dir/BENCH_trace_overhead.json" | cut -d: -f2)"
if ! awk -v x="${event_off:-99}" 'BEGIN { exit !(x <= 25.0) }'; then
  echo "tier-1 gate: FAIL — disabled-path event record costs ${event_off:-missing} ns (> 25)" >&2
  exit 1
fi
# Closed-form bins have no solver in the loop; arming must be harmless.
RLCKIT_RESULTS_DIR="$fault_armed" RLCKIT_FAULTS=2001:0.1 \
  cargo run --release --offline -q -p rlckit-bench --bin table1 >/dev/null

echo "tier-1 gate: OK"
