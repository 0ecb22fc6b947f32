#!/usr/bin/env bash
# Simulator performance benchmark: run the bench_sim micro-benchmarks
# (calibration sessions/s serial vs parallel, blocked-GEMM MFLOP/s,
# calendar-queue DES events/s, temporal-monitor events/s), then time
# the full 1000-device fleet_sweep serial (--jobs 1) vs parallel
# (--jobs $(nproc)) and `cmp` the two outputs — the
# determinism-under-parallelism gate from PERFORMANCE.md. Writes the
# combined all-integer BENCH_sim.json and, when a checked-in baseline
# is present, fails if calibration sessions/s regresses by more than
# 20% against it. The parallel speedup gate applies to the stage that
# runs in parallel — bench_sim's serial vs parallel calibration — and
# only arms on machines with at least 4 cores (a 1-core runner can
# only prove determinism, not speedup). CI runs this after the build
# and uploads the JSON as an artifact; run locally with
#   ./scripts/bench_sim.sh
# Knobs: DEVICES / REQUESTS / SEED / JOBS / OUT / BASELINE
# environment variables; set BASELINE= (empty) to skip the
# regression gate.
set -eu

cd "$(dirname "$0")/.."

DEVICES="${DEVICES:-1000}"
REQUESTS="${REQUESTS:-3000}"
SEED="${SEED:-42}"
# At least 4 workers by default: on a small runner the speedup gate
# stays disarmed, but oversubscription still exercises the executor's
# steal path for the byte-identity cmp below.
JOBS="${JOBS:-$(( $(nproc) > 4 ? $(nproc) : 4 ))}"
OUT="${OUT:-BENCH_sim.json}"
BASELINE="${BASELINE-BENCH_sim.json}"

SWEEP=target/release/fleet_sweep
BENCH=target/release/bench_sim
if [ ! -x "$SWEEP" ] || [ ! -x "$BENCH" ]; then
    cargo build --release -p hetero-bench
fi

# --- micro-benchmarks -------------------------------------------------
micro="$("$BENCH" --devices 256 --jobs "$JOBS" --json | grep '^{')"

field() {
    printf '%s\n' "$micro" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}
calib_serial_sessions_per_sec=$(field calib_serial_sessions_per_sec)
calib_parallel_sessions_per_sec=$(field calib_parallel_sessions_per_sec)
calib_sessions=$(field calib_sessions)
calib_serial_us=$(field calib_serial_us)
calib_parallel_us=$(field calib_parallel_us)
gemm_mflops=$(field gemm_mflops)
des_events_per_sec=$(field des_events_per_sec)
monitor_events_per_sec=$(field monitor_events_per_sec)
for var in calib_serial_sessions_per_sec calib_parallel_sessions_per_sec \
    calib_sessions calib_serial_us calib_parallel_us \
    gemm_mflops des_events_per_sec monitor_events_per_sec; do
    if [ -z "${!var}" ]; then
        echo "bench_sim: failed to parse $var from bench_sim --json output" >&2
        printf '%s\n' "$micro" >&2
        exit 1
    fi
done

# --- fleet sweep, serial vs parallel, byte-identity gate --------------
serial_out="$(mktemp)"
parallel_out="$(mktemp)"
trap 'rm -f "$serial_out" "$parallel_out"' EXIT

t0=$(date +%s%N)
"$SWEEP" --seed "$SEED" --devices "$DEVICES" --requests "$REQUESTS" \
    --jobs 1 > "$serial_out"
t1=$(date +%s%N)
"$SWEEP" --seed "$SEED" --devices "$DEVICES" --requests "$REQUESTS" \
    --jobs "$JOBS" > "$parallel_out"
t2=$(date +%s%N)

if ! cmp -s "$serial_out" "$parallel_out"; then
    echo "bench_sim: fleet_sweep --jobs 1 and --jobs $JOBS outputs differ:" >&2
    diff "$serial_out" "$parallel_out" >&2 || true
    echo "bench_sim: the determinism-under-parallelism contract is broken" >&2
    exit 1
fi
echo "bench_sim: fleet_sweep --jobs 1 vs --jobs $JOBS byte-identical [verified]"

serial_wall_ns=$((t1 - t0))
parallel_wall_ns=$((t2 - t1))
speedup_x100=$((serial_wall_ns * 100 / (parallel_wall_ns > 0 ? parallel_wall_ns : 1)))
calib_speedup_x100=$((calib_serial_us * 100 / (calib_parallel_us > 0 ? calib_parallel_us : 1)))

cores=$(nproc)
if [ "$cores" -ge 4 ] && [ "$JOBS" -ge 4 ]; then
    # Parallel calibration must pay for itself on a real multi-core
    # machine: at least 2x on 4 cores. The gate reads the calibration
    # stage alone. Memoized calibration is only about half of a
    # 1000-device fleet_sweep, and the replay stays serial, so by
    # Amdahl's law the whole sweep cannot reach 2x; its wall-clock
    # ratio is recorded below, not gated.
    if [ "$calib_speedup_x100" -lt 200 ]; then
        echo "bench_sim: calibration --jobs $JOBS speedup ${calib_speedup_x100}/100x < 2x on $cores cores" >&2
        exit 1
    fi
fi

# --- regression gate vs the checked-in baseline -----------------------
# Wall-clock rates are machine-dependent, so the gate is relative:
# serial calibration sessions/s (the tentpole hot path) must stay
# within 20% of the baseline measured on the same class of runner.
# Read the baseline before (possibly) overwriting it with $OUT.
if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
    base=$(grep -o '"calib_serial_sessions_per_sec":[ ]*[0-9]*' "$BASELINE" \
        | head -1 | grep -o '[0-9]*$')
    if [ -n "$base" ] && [ "$base" -gt 0 ]; then
        floor=$((base * 80 / 100))
        if [ "$calib_serial_sessions_per_sec" -lt "$floor" ]; then
            echo "bench_sim: calibration sessions/s $calib_serial_sessions_per_sec regressed >20% vs baseline $base" >&2
            exit 1
        fi
        echo "bench_sim: sessions/s $calib_serial_sessions_per_sec vs baseline $base (floor $floor) [ok]"
    fi
fi

cat > "$OUT" <<EOF
{
  "bench": "simulator_performance",
  "seed": $SEED,
  "devices": $DEVICES,
  "requests": $REQUESTS,
  "jobs": $JOBS,
  "cores": $cores,
  "calib_sessions": $calib_sessions,
  "calib_serial_sessions_per_sec": $calib_serial_sessions_per_sec,
  "calib_parallel_sessions_per_sec": $calib_parallel_sessions_per_sec,
  "calib_speedup_x100": $calib_speedup_x100,
  "gemm_mflops": $gemm_mflops,
  "des_events_per_sec": $des_events_per_sec,
  "monitor_events_per_sec": $monitor_events_per_sec,
  "fleet_serial_wall_ns": $serial_wall_ns,
  "fleet_parallel_wall_ns": $parallel_wall_ns,
  "fleet_speedup_x100": $speedup_x100
}
EOF

echo "bench_sim: wrote $OUT"
cat "$OUT"
