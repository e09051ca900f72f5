#!/usr/bin/env bash
# Serving-stack smoke gate (CI): boot sjs_serve on an ephemeral loopback
# port, drive it with sjs_load for ~2 wall seconds, SIGTERM the daemon, and
# assert the full contract:
#
#   1. the server drains cleanly on SIGTERM (exit 0),
#   2. jobs actually completed (nonzero server completed counter AND a
#      nonzero server.jobs_completed metric),
#   3. the journal directory is a parseable instance bundle, and
#   4. replaying it through sjs_sim reproduces the live outcomes
#      byte-identically (diff of outcomes.csv), and
#   5. every job window's ring stayed inside its reservation
#      (server.window_slots[.shard<k>] <= server.window_reserved[.shard<k>]).
#
# Each phase also prints, with no threshold, sjs_load's notification lag
# p50/p99, the server's peak RSS (VmHWM, read before the drain), its
# job-window gauges (server.in_flight_peak, .window_peak, .window_slots,
# .window_reserved, .window_stragglers, .outcome_rows_held and
# .outcome_ring_slots, each [.shard<k>]), its loop
# wake-ups per submit by cause (server.wakeups.*) and the p99 of how late
# its timer wakes came (server.wake_late_us.p99). The cluster replay also
# runs the invariant checker (sjs_sim --check-invariants).
#
# The gate runs three times: against the single-threaded server, against the
# sharded plane (--shards=4, sjs_load --connections=4, where step 3/4 apply
# to EVERY per-shard bundle <journal>/shard<k> independently), and against
# the fleet plane (--cluster=4, replayed via sjs_sim --cluster-bundle).
#
# Then a straggler phase per mode: an overloaded stream with deadline
# windows up to 100x the workload (40x on the fleet) under a small
# --max-in-flight (a power of two, so also the ring's pre-size) that the
# jobs in flight stay under, while long-deadline jobs pin the window's base
# and the unretired span grows several times past it. Beyond steps 1-4 it
# asserts the window rule (sim/job_table.hpp): every job window's ring
# stayed within max(16, 4 x its in-flight peak)
# (server.window_slots[.shard<k>] against server.in_flight_peak, same
# suffix), and jobs spilled to the straggler store
# (server.window_stragglers > 0).
#
# Then a held-ring phase per engine (single and fleet): the straggler load
# at --max-in-flight=65536, so the journal's held-row ring has a large
# reservation to widen into. Beyond steps 1-4 it asserts that the ring
# followed the held span, not the pre-size (serve/journal.hpp): every
# journal's server.outcome_ring_slots[.shard<k>] <= max(64,
# bit_ceil(server.outcome_rows_held + server.window_peak)), same suffix
# (at any moment the held span is at most the held rows plus the unretired
# ids).
#
# Last, two phases boot sjs_serve with the flags perfbench boots it with
# (single: V-Dover, band [1, 2]; fleet: --cluster=4 --rental=threshold
# --cluster-key=deadline; both --max-in-flight=4096 and no --metrics), so
# the server with no metrics registry runs here too. They gate steps 1, 3
# and 4 and the completed counter of the server summary, and that the
# server printed no metrics.
#
# Usage: scripts/serve_smoke.sh   (BUILD_DIR overrides ./build)
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
SERVE="$BUILD_DIR/tools/sjs_serve"
LOAD="$BUILD_DIR/tools/sjs_load"
SIM="$BUILD_DIR/tools/sjs_sim"
for bin in "$SERVE" "$LOAD" "$SIM"; do
  [ -x "$bin" ] || { echo "missing binary: $bin (build first)" >&2; exit 1; }
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# replay_bundle <bundle_dir> <tag>: bundle is complete, parseable, and
# replays through sjs_sim to a byte-identical outcomes.csv.
replay_bundle() {
  local bundle="$1" tag="$2"
  for f in jobs.csv capacity.csv band.csv meta.csv outcomes.csv; do
    [ -s "$bundle/$f" ] || { echo "FAIL($tag): bundle missing $f" >&2; exit 1; }
  done
  local scheduler
  scheduler="$(awk -F, '$1 == "scheduler" { print $2 }' "$bundle/meta.csv")"
  "$SIM" --bundle="$bundle" --scheduler="$scheduler" \
    --outcomes-csv="$WORK/replay_$tag.csv" > "$WORK/replay_$tag.log"
  diff "$bundle/outcomes.csv" "$WORK/replay_$tag.csv" || {
    echo "FAIL($tag): replay outcomes differ from the live session" >&2
    exit 1
  }
  echo "replay bit-exact: $tag"
}

# replay_cluster_bundle <bundle_dir> <tag>: same contract for a cluster
# journal — complete, parseable, byte-exact through sjs_sim --cluster-bundle.
replay_cluster_bundle() {
  local bundle="$1" tag="$2"
  for f in fleet.csv server0.csv server3.csv band.csv meta.csv jobs.csv \
           outcomes.csv; do
    [ -s "$bundle/$f" ] || { echo "FAIL($tag): bundle missing $f" >&2; exit 1; }
  done
  "$SIM" --cluster-bundle="$bundle" --check-invariants \
    --outcomes-csv="$WORK/replay_$tag.csv" > "$WORK/replay_$tag.log" || {
    cat "$WORK/replay_$tag.log" >&2
    echo "FAIL($tag): cluster replay failed (invariant violation?)" >&2
    exit 1
  }
  grep "^invariants:" "$WORK/replay_$tag.log"
  diff "$bundle/outcomes.csv" "$WORK/replay_$tag.csv" || {
    echo "FAIL($tag): cluster replay outcomes differ from the live session" >&2
    exit 1
  }
  echo "replay bit-exact: $tag"
}

# wake_report <tag> <server_log>: the loop's wake-ups per submit by cause
# and the timer-wake lateness p99, summed (counters) or maxed (p99) over the
# plain and the per-shard names. Reported, not gated.
wake_report() {
  local tag="$1" log="$2"
  awk -v tag="$tag" '
    function base(name) { sub(/\.shard[0-9]+$/, "", name); return name }
    $1 ~ /^server\./ {
      name = $1; sub(/:$/, "", name)
      sharded = (name ~ /\.shard[0-9]+$/)
      key = base(name)
      if (key == "server.jobs_submitted") {
        if (sharded) shard_submits += $2; else submits += $2
      } else if (key ~ /^server\.wakeups\./) {
        wakes[key] += $2
      } else if (key == "server.wake_late_us.p99" && $2 > late) {
        late = $2; seen_late = 1
      }
    }
    END {
      if (shard_submits > 0) submits = shard_submits
      line = sprintf("[%s] wake-ups per submit:", tag)
      n = split("socket timer timer_empty dead_skipped", causes, " ")
      for (i = 1; i <= n; i++) {
        w = wakes["server.wakeups." causes[i]]
        line = line sprintf(" %s %s", causes[i],
                            submits > 0 ? sprintf("%.3f", w / submits) : "n/a")
      }
      print line
      printf "[%s] timer wake lateness p99 (us): %s\n", tag,
             seen_late ? late : "no timer wakes"
    }' "$log"
}

# smoke_phase <tag> <journal_dir> <extra serve flags...> -- <extra load flags...>
smoke_phase() {
  local tag="$1" journal="$2"
  shift 2
  local serve_flags=()
  while [ "$1" != "--" ]; do serve_flags+=("$1"); shift; done
  shift
  local load_flags=("$@")
  local server_log="$WORK/server_$tag.log"

  # METRICS=0 boots the server without --metrics: no registry, so only
  # the server summary's counters are gated.
  local with_metrics="${METRICS:-1}"
  local metrics_flag=()
  [ "$with_metrics" -eq 1 ] && metrics_flag=(--metrics)

  # accel=20: two wall seconds of load span 40 virtual seconds, so plenty of
  # jobs resolve while the session is still live.
  "$SERVE" --port=0 --journal="$journal" --accel=20 "${metrics_flag[@]}" \
    "${serve_flags[@]}" > "$server_log" 2>&1 &
  SERVER_PID=$!

  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "$server_log")"
    [ -n "$port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$server_log" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "server never reported LISTENING" >&2; exit 1; }
  echo "[$tag] server up on port $port (pid $SERVER_PID)"

  "$LOAD" --port="$port" --duration=2 --rate=200 --linger=1 --seed=7 \
    "${load_flags[@]}" | tee "$WORK/load_$tag.log"
  # Reported, not gated: how long after the server's clock reached each
  # completion its COMPLETED arrived (docs/serving.md, "Waking on time").
  local lag
  lag="$(sed -n 's/^notification lag (ms): //p' "$WORK/load_$tag.log")"
  echo "[$tag] notification lag (ms): ${lag:-no completions}"

  local hwm
  hwm="$(awk '/^VmHWM:/ { print $2, $3 }' "/proc/$SERVER_PID/status" \
    2>/dev/null || true)"
  echo "[$tag] server VmHWM before drain: ${hwm:-unavailable}"
  echo "[$tag] sending SIGTERM"
  kill -TERM "$SERVER_PID"
  local status=0
  wait "$SERVER_PID" || status=$?
  SERVER_PID=""
  cat "$server_log"
  [ "$status" -eq 0 ] || {
    echo "FAIL($tag): server exited $status after SIGTERM" >&2; exit 1; }

  COMPLETED="$(sed -n 's/^server: .* \([0-9]*\) completed.*/\1/p' "$server_log")"
  [ -n "$COMPLETED" ] && [ "$COMPLETED" -gt 0 ] || {
    echo "FAIL($tag): no completed jobs in server summary" >&2; exit 1; }

  if [ "$with_metrics" -eq 0 ]; then
    if grep -q '^metrics:' "$server_log"; then
      echo "FAIL($tag): metrics printed without --metrics" >&2; exit 1
    fi
    echo "[$tag] no metrics registry: nothing to report"
    return
  fi

  echo "[$tag] job window:"
  grep -E '^ +server\.(in_flight_peak|window_|outcome_)' \
    "$server_log" || echo "  (none reported)"
  reserve_gate "$tag" "$server_log"
  wake_report "$tag" "$server_log"

  local metric
  metric="$(awk '/server\.jobs_completed:/ { print $2 }' "$server_log")"
  [ -n "$metric" ] && awk -v m="$metric" 'BEGIN { exit !(m > 0) }' || {
    echo "FAIL($tag): server.jobs_completed metric missing or zero" >&2
    exit 1
  }
}

# reserve_gate <tag> <log>: every job window's ring (window_slots) stayed
# within the slots its pre-size reserved (window_reserved, same suffix).
reserve_gate() {
  local tag="$1" log="$2"
  awk -v tag="$tag" '
    $1 ~ /^server\.window_slots/ {
      k = $1; sub(/^server\.window_slots/, "", k); slots[k] = $2
    }
    $1 ~ /^server\.window_reserved/ {
      k = $1; sub(/^server\.window_reserved/, "", k); reserved[k] = $2
    }
    END {
      for (k in slots) {
        windows++
        if (!(k in reserved)) {
          printf "FAIL(%s): no window_reserved%s gauge\n", tag, k; bad = 1
        } else if (slots[k] + 0 > reserved[k] + 0) {
          printf "FAIL(%s): window_slots%s %s > window_reserved %s\n", tag,
                 k, slots[k], reserved[k]
          bad = 1
        }
      }
      if (windows == 0) {
        printf "FAIL(%s): no window_slots gauge\n", tag; bad = 1
      }
      if (!bad) {
        printf "[%s] %d window(s) within their reservation\n", tag, windows
      }
      exit bad
    }' "$log" >&2 || exit 1
}

# straggler_gate <tag>: every job window of the phase's server kept its
# ring within max(16, 4 x its in-flight peak) (the window rule: a ring
# doubles from C slots only while more than C/2 jobs are pending), and jobs
# spilled.
straggler_gate() {
  local tag="$1" log="$WORK/server_$1.log"
  awk -v tag="$tag" '
    $1 ~ /^server\.window_slots/ {
      k = $1; sub(/^server\.window_slots/, "", k); sub(/:$/, "", k)
      slots[k] = $2
    }
    $1 ~ /^server\.in_flight_peak/ {
      k = $1; sub(/^server\.in_flight_peak/, "", k); sub(/:$/, "", k)
      peak[k] = $2
    }
    $1 ~ /^server\.window_stragglers/ { spilled += $2 }
    END {
      for (k in slots) {
        windows++
        bound = 4 * peak[k]
        if (bound < 16) bound = 16
        if (!(k in peak)) {
          printf "FAIL(%s): no in_flight_peak%s gauge\n", tag, k; bad = 1
        } else if (slots[k] + 0 > bound) {
          printf "FAIL(%s): window_slots%s %s > max(16, 4 x in_flight_peak " \
                 "%s)\n", tag, k, slots[k], peak[k]
          bad = 1
        }
      }
      if (windows == 0) {
        printf "FAIL(%s): no window_slots gauge\n", tag; bad = 1
      }
      if (spilled == 0) { printf "FAIL(%s): no job spilled\n", tag; bad = 1 }
      if (!bad) {
        printf "[%s] %d window(s) within 4x their in-flight peak; " \
               "%d straggler(s) spilled\n", tag, windows, spilled
      }
      exit bad
    }' "$log" >&2 || exit 1
}

# held_ring_gate <tag>: every journal's held-row ring kept within
# max(64, bit_ceil(outcome_rows_held + window_peak)), same suffix.
held_ring_gate() {
  local tag="$1" log="$WORK/server_$1.log"
  awk -v tag="$tag" '
    function key(name, gauge) {
      sub("^server\\." gauge, "", name); sub(/:$/, "", name); return name
    }
    $1 ~ /^server\.outcome_ring_slots/ {
      ring[key($1, "outcome_ring_slots")] = $2
    }
    $1 ~ /^server\.outcome_rows_held/ { held[key($1, "outcome_rows_held")] = $2 }
    $1 ~ /^server\.window_peak/ { span[key($1, "window_peak")] = $2 }
    END {
      for (k in ring) {
        rings++
        bound = 64
        while (bound < held[k] + span[k]) bound *= 2
        if (!(k in held) || !(k in span)) {
          printf "FAIL(%s): no outcome_rows_held%s or window_peak%s gauge\n",
                 tag, k, k
          bad = 1
        } else if (ring[k] + 0 > bound) {
          printf "FAIL(%s): outcome_ring_slots%s %s > max(64, bit_ceil(" \
                 "outcome_rows_held %s + window_peak %s)) = %d\n", tag, k,
                 ring[k], held[k], span[k], bound
          bad = 1
        }
      }
      if (rings == 0) {
        printf "FAIL(%s): no outcome_ring_slots gauge\n", tag; bad = 1
      }
      if (!bad) {
        printf "[%s] %d held-row ring(s) within their held span\n", tag, rings
      }
      exit bad
    }' "$log" >&2 || exit 1
}

# --- Phase 1: single-threaded AdmissionServer (the original gate) ----------
smoke_phase single "$WORK/journal" --
replay_bundle "$WORK/journal" single
SINGLE_COMPLETED="$COMPLETED"

# --- Phase 2: sharded plane, 4 shards x 4 loadgen connections --------------
smoke_phase sharded "$WORK/journal4" --shards=4 -- --connections=4
for k in 0 1 2 3; do
  replay_bundle "$WORK/journal4/shard$k" "shard$k"
done
# The per-shard drain lines prove every shard carried traffic.
for k in 0 1 2 3; do
  grep -q "^shard $k drained:" "$WORK/server_sharded.log" || {
    echo "FAIL: no drain summary for shard $k" >&2; exit 1; }
done

SHARDED_COMPLETED="$COMPLETED"

# --- Phase 3: elastic fleet (--cluster=4) ----------------------------------
smoke_phase cluster "$WORK/journalc" --cluster=4 --
replay_cluster_bundle "$WORK/journalc" cluster
grep -q "^drained: cluster of 4" "$WORK/server_cluster.log" || {
  echo "FAIL: no cluster drain summary" >&2; exit 1; }
CLUSTER_COMPLETED="$COMPLETED"

# --- Phase 4: stragglers, per mode -----------------------------------------
smoke_phase straggler_single "$WORK/journal_ss" --max-in-flight=64 -- \
  --mean-workload=0.1 --slack-max=100
straggler_gate straggler_single
replay_bundle "$WORK/journal_ss" straggler_single

smoke_phase straggler_sharded "$WORK/journal_s2" --shards=2 \
  --max-in-flight=64 -- --mean-workload=0.2 --slack-max=100 --connections=2
straggler_gate straggler_sharded
for k in 0 1; do
  replay_bundle "$WORK/journal_s2/shard$k" "straggler_shard$k"
done

smoke_phase straggler_cluster "$WORK/journal_sc" --cluster=4 \
  --max-in-flight=64 -- --mean-workload=20 --slack-max=40 --c-lo=2
straggler_gate straggler_cluster
replay_cluster_bundle "$WORK/journal_sc" straggler_cluster

# --- Phase 5: the journal's held rows at a large pre-size, per engine -------
smoke_phase held_ring_single "$WORK/journal_hs" --max-in-flight=65536 -- \
  --mean-workload=0.1 --slack-max=100
held_ring_gate held_ring_single
replay_bundle "$WORK/journal_hs" held_ring_single

smoke_phase held_ring_cluster "$WORK/journal_hc" --cluster=4 \
  --max-in-flight=65536 -- --mean-workload=20 --slack-max=40 --c-lo=2
held_ring_gate held_ring_cluster
replay_cluster_bundle "$WORK/journal_hc" held_ring_cluster

# --- Phase 6: booted as perfbench boots it, no metrics registry ------------
METRICS=0 smoke_phase perfbench_single "$WORK/journal_ps" \
  --scheduler=V-Dover --max-in-flight=4096 --c-lo=1.0 --c-hi=2.0 -- --c-lo=1
replay_bundle "$WORK/journal_ps" perfbench_single

METRICS=0 smoke_phase perfbench_cluster "$WORK/journal_pc" --cluster=4 \
  --rental=threshold --cluster-key=deadline --max-in-flight=4096 -- --c-lo=2
replay_cluster_bundle "$WORK/journal_pc" perfbench_cluster

echo "PASS: clean SIGTERM drains ($SINGLE_COMPLETED single / $SHARDED_COMPLETED sharded / $CLUSTER_COMPLETED cluster completed), all replays bit-exact, straggler windows within 4x their in-flight peak, held-row rings within their held span, perfbench boots without metrics drain and replay"
