#!/usr/bin/env bash
# Local CI: the exact gate a change must pass before merging.
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: first-party crates must build rustdoc warning-free
# (broken intra-doc links, missing code-block languages, ...). Scoped with
# -p so the vendored dependency stand-ins are not held to the same bar.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p obs -p mrjobs -p datagen -p staticanalysis -p mrsim -p profiler \
  -p whatif -p optimizer -p cfstore -p mlmatch -p pstorm -p pstorm-bench

echo "==> trace snapshot (fixed-seed trace must be bit-identical)"
cargo test -q -p pstorm-tests --test trace_snapshot

# Budget regression gate: hard thresholds over the golden trace's
# counters — CBO what-if/memo accounting and ceiling, the matcher's
# per-stage survivor funnel, per-region read-amplification sums, and
# the block-cache hit-rate / flush-compaction accounting ceilings.
# Regenerating the snapshot does NOT loosen these; see budget_gate.rs.
echo "==> budget gate (search budget + matcher funnel + cache/flush envelopes)"
cargo test -q -p pstorm-tests --test budget_gate

# Block-cache oracle: lazy segment-backed reads through the bounded
# cache must be bit-identical to full materialization at every budget
# (including 0 bytes), and a crash injected into the background flusher
# mid-segment-write must lose nothing.
echo "==> block cache property tests (cached reads vs materialized oracle)"
cargo test -q -p pstorm-tests --test property_block_cache

# Sharded-store gate (PR 7): crash/loss/heal properties — any single
# shard killed at every WAL byte, whole-shard loss rebuilding an
# identical META catalog, on-disk segment corruption healed from a
# replica, matcher output unchanged across shard loss. The heal-counter
# ceilings themselves are part of the budget gate above.
echo "==> shard property tests (crash sweep + loss rebuild + heal)"
cargo test -q -p pstorm-tests --test property_shards

# Bounded shard-chaos sweep: each shard killed once at a sampled WAL
# offset across several workload seeds. (The exhaustive every-byte sweep
# already runs in the suite above; this keeps a second, differently
# seeded pass in the gate without the full enumeration cost.)
echo "==> bounded shard-chaos sweep"
cargo test -q -p pstorm-tests --test property_shards -- --ignored

# Multi-tenant isolation sweep (PR 8): ≥1000 seeds of interleaved
# tenants — hostile, flooding, and cell-corrupting — with every clean
# tenant's outcomes pinned bit-identical to a solo single-tenant daemon
# and every acked profile served back. The flood/durable tests run in
# the plain suite above; the `--ignored` test is the full sweep.
echo "==> multi-tenant isolation sweep"
cargo test -q -p pstorm-tests --test property_tenants -- --ignored

# Elastic-resharding gate (PR 9): crash at every TOPOLOGY journal byte
# and at swept mid-migration WAL bytes for grow/shrink/R-change plans,
# pause-at-every-step fsck/resume checks, override placement, matcher
# stability mid-migration, and fsck exit codes — all in the plain suite
# above; the `--ignored` test is the bounded randomized chaos pass.
echo "==> bounded reshard-chaos sweep"
cargo test -q -p pstorm-tests --test property_reshard -- --ignored

# Paper gate: every experiment binary reproduces its results/*.txt
# capture byte for byte. The fast figures run in the plain suite above;
# the `--ignored` sweep runs the slow ones (fig6_1, fig6_2 at
# PSTORM_GBRT_SCALE=0.1, fig6_3, sec7_2_extensions, ablations) in release.
echo "==> paper gate sweep (slow figures vs results/)"
cargo test --release -q -p pstorm-bench --test paper_gate -- --ignored

# Documentation gate 2: every `DESIGN.md §N` reference in the repo must
# resolve to a real section, and relative doc links must not dangle.
echo "==> doc link check"
./scripts/check_docs.sh

echo "CI OK"
