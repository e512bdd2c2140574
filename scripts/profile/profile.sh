#!/usr/bin/env bash
# Samples one perfbench workload and prints where its CPU time goes.
#
#   scripts/profile/profile.sh WORKLOAD SECONDS [perfbench args...]
#   scripts/profile/profile.sh fig14 15 --seed 11
#
# Builds perfbench (release, with line tables) into $PROFILE_TARGET
# (default target/profile-perfbench, outside perfbench/) and sampler.c
# beside it, runs the workload once with the sampler preloaded, and
# symbolises the samples with report.py. The sampler's timer counts this
# one process's CPU time, and the sampler counts its heap allocations;
# nothing about the machine is changed. The raw samples stay in
# $PROFILE_TARGET/WORKLOAD.prof and perfbench's own output in
# $PROFILE_TARGET/WORKLOAD.stdout, whose `attempted` op count report.py
# divides the allocations by.
set -euo pipefail
cd "$(dirname "$0")/../.."
usage="usage: $0 WORKLOAD SECONDS [perfbench args...]"
workload=${1:?$usage}
seconds=${2:?$usage}
shift 2
target=${PROFILE_TARGET:-$PWD/target/profile-perfbench}
CARGO_TARGET_DIR=$target CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cc -O2 -shared -fPIC -o "$target/sampler.so" scripts/profile/sampler.c -ldl
SAMPLER_OUT=$target/$workload.prof LD_PRELOAD=$target/sampler.so \
    "$target/release/perfbench" --workload "$workload" --seconds "$seconds" "$@" \
    > "$target/$workload.stdout"
python3 scripts/profile/report.py "$target/$workload.prof" "$target/release/perfbench"
