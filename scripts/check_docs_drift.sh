#!/usr/bin/env bash
# Docs-drift gate: every `--bin NAME` command the docs advertise must
# point at a binary that exists and whose `--help` exits 0. Catches
# renamed/removed binaries and broken flag parsing without running any
# experiment. CI runs this after the build; run locally with
#   ./scripts/check_docs_drift.sh
set -u

cd "$(dirname "$0")/.."

DOCS="EXPERIMENTS.md README.md OBSERVABILITY.md DESIGN.md PERFORMANCE.md"
fail=0

bins=$(grep -ho -- '--bin [a-z0-9_]*' $DOCS | awk '{print $2}' | sort -u)
if [ -z "$bins" ]; then
    echo "docs-drift: no --bin commands found in $DOCS (unexpected)" >&2
    exit 1
fi

for bin in $bins; do
    src=""
    for dir in crates/bench/src/bin crates/analyze/src/bin; do
        if [ -f "$dir/$bin.rs" ]; then
            src="$dir/$bin.rs"
            break
        fi
    done
    if [ -z "$src" ]; then
        echo "docs-drift: docs reference --bin $bin but no such binary source exists" >&2
        fail=1
        continue
    fi
    exe="target/release/$bin"
    if [ ! -x "$exe" ]; then
        echo "docs-drift: $exe not built (run cargo build --release first)" >&2
        fail=1
        continue
    fi
    if ! "$exe" --help >/dev/null 2>&1; then
        echo "docs-drift: $bin --help exited non-zero" >&2
        fail=1
    fi
done

# Advertised flags must be accepted: for each documented invocation of
# any binary, every long flag must appear in the binary's --help output.
for bin in $bins; do
    exe="target/release/$bin"
    [ -x "$exe" ] || continue
    help=$("$exe" --help 2>&1)
    flags=$(grep -ho -- "--bin $bin [^\`]*" $DOCS | grep -o -- '--[a-z-]*' |
        grep -v -- '--bin' | sort -u)
    for flag in $flags; do
        if ! printf '%s' "$help" | grep -q -- "$flag"; then
            echo "docs-drift: docs pass $flag to $bin but its --help does not list it" >&2
            fail=1
        fi
    done
done

# Every scripts/*.sh the docs advertise must exist and be executable
# (catches renamed harness scripts like bench_sim.sh / bench_fleet.sh).
scripts=$(grep -ho -- 'scripts/[a-z0-9_]*\.sh' $DOCS | sort -u)
for script in $scripts; do
    if [ ! -x "$script" ]; then
        echo "docs-drift: docs reference $script but it is missing or not executable" >&2
        fail=1
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "docs-drift: $(echo "$bins" | wc -w | tr -d ' ') documented binaries all exist and take --help"
fi
exit $fail
