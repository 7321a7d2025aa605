#!/usr/bin/env bash
# Build hirc and the benchmark (release), then run one benchmark pass:
#   bash hirbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr, so the last
# stdout line is the result JSON. CARGO_TARGET_DIR is honoured.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" --bin hirc >&2
cargo build --release --offline --quiet --target-dir "$target" --manifest-path hirbench/Cargo.toml >&2
"$target/release/hirbench" "$@" --hirc "$target/release/hirc" --work-dir "$target/hirbench-work"
