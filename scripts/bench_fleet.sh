#!/usr/bin/env bash
# Fleet temporal-certification benchmark: run the seeded fleet sweep
# with event recording, sweep both arms through the past-time-LTL
# monitor (plus the policy model check), then run the staged canary
# rollout (regressing + improving candidates, in-binary certification)
# and write BENCH_fleet.json — all-integer wall times, monitored-event
# counts, throughput, rollback latency, and blast radius. CI runs this
# after the build and uploads the JSON as an artifact; run locally with
#   ./scripts/bench_fleet.sh
# Knobs: DEVICES / REQUESTS / ROLLOUT_DEVICES / ROLLOUT_REQUESTS /
# SEED / OUT environment variables.
set -eu

cd "$(dirname "$0")/.."

DEVICES="${DEVICES:-256}"
REQUESTS="${REQUESTS:-3000}"
ROLLOUT_DEVICES="${ROLLOUT_DEVICES:-256}"
ROLLOUT_REQUESTS="${ROLLOUT_REQUESTS:-1500}"
SEED="${SEED:-42}"
OUT="${OUT:-BENCH_fleet.json}"

SWEEP=target/release/fleet_sweep
ROLLOUT=target/release/rollout_sweep
ANALYZE=target/release/analyze
if [ ! -x "$SWEEP" ] || [ ! -x "$ROLLOUT" ] || [ ! -x "$ANALYZE" ]; then
    cargo build --release -p hetero-bench -p hetero-analyze
fi

events="$(mktemp)"
trap 'rm -f "$events"' EXIT

t0=$(date +%s%N)
"$SWEEP" --seed "$SEED" --devices "$DEVICES" --requests "$REQUESTS" \
    --events-out "$events" > /dev/null
t1=$(date +%s%N)
monitor_out="$("$ANALYZE" monitor "$events")"
t2=$(date +%s%N)

# Parse the analyzer's stats lines, e.g.
#   model-check[standard]: N states, M transitions, ...
#   monitor[fleet[42]/robust]: events=10291 instances=3068 violations=0
robust_events=$(printf '%s\n' "$monitor_out" | sed -n 's|.*/robust\]: events=\([0-9]*\).*|\1|p')
robust_instances=$(printf '%s\n' "$monitor_out" | sed -n 's|.*/robust\]: .*instances=\([0-9]*\).*|\1|p')
robust_violations=$(printf '%s\n' "$monitor_out" | sed -n 's|.*/robust\]: .*violations=\([0-9]*\).*|\1|p')
naive_events=$(printf '%s\n' "$monitor_out" | sed -n 's|.*/round-robin\]: events=\([0-9]*\).*|\1|p')
naive_violations=$(printf '%s\n' "$monitor_out" | sed -n 's|.*/round-robin\]: .*violations=\([0-9]*\).*|\1|p')
model_states=$(printf '%s\n' "$monitor_out" | sed -n 's|^model-check\[standard\]: \([0-9]*\) states.*|\1|p')
model_transitions=$(printf '%s\n' "$monitor_out" | sed -n 's|^model-check\[standard\]: .* \([0-9]*\) transitions.*|\1|p')

for var in robust_events robust_instances robust_violations naive_events \
    naive_violations model_states model_transitions; do
    if [ -z "${!var}" ]; then
        echo "bench_fleet: failed to parse $var from analyze monitor output" >&2
        printf '%s\n' "$monitor_out" >&2
        exit 1
    fi
done

# Staged canary rollout: the binary gates itself (rollback at the 1%
# stage for the regressing candidate, promotion for the improving one,
# clean monitor sweeps, ladder model check); here we time it and pull
# the headline integers out of its JSON summary and monitor lines.
t3=$(date +%s%N)
rollout_out="$("$ROLLOUT" --seed "$SEED" --devices "$ROLLOUT_DEVICES" \
    --requests "$ROLLOUT_REQUESTS" --json)"
t4=$(date +%s%N)

# First occurrence = the regressing candidate's report (serialized
# before the improving one in SweepSummary).
rollback_latency_ns=$(printf '%s\n' "$rollout_out" \
    | grep -o '"rollback_latency_ns":[0-9]*' | head -1 | cut -d: -f2)
rollout_exposed_ppm=$(printf '%s\n' "$rollout_out" \
    | grep -o '"exposed_ppm":[0-9]*' | head -1 | cut -d: -f2)
# Sum of both rollout logs' monitored events, from the in-binary
# temporal-monitor lines: "temporal monitor [x]: clean (N events, ...".
rollout_events=$(printf '%s\n' "$rollout_out" \
    | sed -n 's|^temporal monitor \[.*\]: clean (\([0-9]*\) events.*|\1|p' \
    | awk '{s += $1} END {print s + 0}')

for var in rollback_latency_ns rollout_exposed_ppm; do
    if [ -z "${!var}" ]; then
        echo "bench_fleet: failed to parse $var from rollout_sweep output" >&2
        printf '%s\n' "$rollout_out" >&2
        exit 1
    fi
done
if [ "$rollout_events" -eq 0 ]; then
    echo "bench_fleet: no temporal-monitor lines in rollout_sweep output" >&2
    printf '%s\n' "$rollout_out" >&2
    exit 1
fi
printf '%s\n' "$rollout_out" | grep -q '"outcome":"rolled-back"'
printf '%s\n' "$rollout_out" | grep -q '"outcome":"promoted"'

sweep_wall_ns=$((t1 - t0))
monitor_wall_ns=$((t2 - t1))
rollout_wall_ns=$((t4 - t3))
monitored_events=$((robust_events + naive_events))
if [ "$monitor_wall_ns" -gt 0 ]; then
    # Throughput of the certification pass (model check + both arms).
    events_per_sec=$((monitored_events * 1000000000 / monitor_wall_ns))
else
    events_per_sec=0
fi

cat > "$OUT" <<EOF
{
  "bench": "fleet_temporal_certification",
  "seed": $SEED,
  "devices": $DEVICES,
  "requests": $REQUESTS,
  "sweep_wall_ns": $sweep_wall_ns,
  "monitor_wall_ns": $monitor_wall_ns,
  "monitored_events": $monitored_events,
  "robust_events": $robust_events,
  "robust_instances": $robust_instances,
  "robust_violations": $robust_violations,
  "naive_events": $naive_events,
  "naive_violations": $naive_violations,
  "model_states": $model_states,
  "model_transitions": $model_transitions,
  "monitor_events_per_sec": $events_per_sec,
  "rollout_devices": $ROLLOUT_DEVICES,
  "rollout_requests": $ROLLOUT_REQUESTS,
  "rollout_wall_ns": $rollout_wall_ns,
  "rollout_events": $rollout_events,
  "rollout_rollback_latency_ns": $rollback_latency_ns,
  "rollout_blast_radius_ppm": $rollout_exposed_ppm
}
EOF

echo "bench_fleet: wrote $OUT"
cat "$OUT"
