#!/bin/sh
# Feeds charisma_sim values it must refuse and requires, for each, a
# non-zero exit and an error naming the offending knob on stderr; edge
# values it must honour (kmh=0) must exit 0.
# Usage: cli_reject_smoke.sh path/to/charisma_sim
set -u

sim=${1:?usage: cli_reject_smoke.sh path/to/charisma_sim}
# Small enough that a build which wrongly accepts a case still exits fast.
# Passed before each case's own arguments: the last value of a repeated key
# wins, so a case may override warmup= or measure=.
small="voice_users=4 data_users=0 warmup=0 measure=0.05"
failures=0

# expect_reject KNOB ARGS...: the run must fail with "error: KNOB=" on stderr.
expect_reject() {
  knob=$1
  shift
  err=$("$sim" $small "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "cli_reject_smoke: accepted: $*" >&2
    failures=$((failures + 1))
  elif ! printf '%s\n' "$err" | grep -qF "error: $knob="; then
    echo "cli_reject_smoke: error does not name $knob=: $* -> $err" >&2
    failures=$((failures + 1))
  fi
}

expect_reject mobility cells=2 mobility=foo
expect_reject sweep sweep=foo x=4
expect_reject x sweep=voice x=4,8x
expect_reject x sweep=voice x=4,abc
expect_reject replications replications=0
expect_reject cells cells=0
expect_reject kmh kmh=-5
expect_reject doppler_hz doppler_hz=0
expect_reject diversity diversity=0
expect_reject shadow_sigma_db shadow_sigma_db=-1
expect_reject interference cells=3 interference=2
expect_reject handoff_hysteresis_db cells=3 handoff_hysteresis_db=-1
expect_reject pv pv=0
expect_reject pd pd=1.5
expect_reject request_slots request_slots=0
expect_reject info_slots info_slots=0
expect_reject pilot_slots pilot_slots=-1
expect_reject measure measure=0
expect_reject warmup warmup=-1
# Only -1 means "use the geometry"; other negatives must not run as it.
expect_reject poll_budget poll_budget=-5
# World knobs are validated whatever the cell count: one cell runs no
# world, but an impossible value is still an error, not a silent default.
expect_reject interference cells=1 interference=2
expect_reject handoff_hysteresis_db cells=1 handoff_hysteresis_db=-1
expect_reject threads threads=-3
expect_reject band band=-5
expect_reject shards shards=-2
expect_reject layout layout=bogus
# Scenario values no engine could run are refused by name when parsed,
# not by the engine or the world later on.
expect_reject talkspurt_s talkspurt_s=0
expect_reject silence_s silence_s=-1
expect_reject interarrival_s interarrival_s=0
expect_reject burst_packets burst_packets=0.5
expect_reject mmpp_ratio mmpp_ratio=0.5
expect_reject mmpp_sojourn_s mmpp_sojourn_s=-1
expect_reject ack_loss cells=3 ack_loss=1
expect_reject tx_power_w tx_power_w=-1
expect_reject csi_validity_frames csi_validity_frames=0
expect_reject csi_noise_db csi_noise_db=-1
expect_reject target_ber target_ber=0.6
expect_reject cell_radius_m cell_radius_m=0
expect_reject reuse reuse=0
# Layout combinations no site map can build, refused naming both knobs.
expect_reject wrap wrap=1 layout=line
expect_reject wrap cells=3 layout=hex wrap=1
expect_reject reuse layout=hex reuse=2
expect_reject wrap cells=7 layout=hex reuse=3 wrap=1

# expect_accept ARGS...: the run must exit 0.
expect_accept() {
  if ! "$sim" $small "$@" >/dev/null 2>&1; then
    echo "cli_reject_smoke: rejected: $*" >&2
    failures=$((failures + 1))
  fi
}

# A parked population (kmh=0) still fades at the 1 Hz Doppler floor.
expect_accept kmh=0 cells=1
expect_accept kmh=0 cells=3
# Valid world knobs keep working on a one-cell command line.
expect_accept cells=1 threads=2 shards=2 band=700 layout=hex \
  interference=0.5 handoff_hysteresis_db=2 mobility=vector

if [ "$failures" -ne 0 ]; then
  echo "cli_reject_smoke: $failures case(s) failed" >&2
  exit 1
fi
echo "cli_reject_smoke: OK"
