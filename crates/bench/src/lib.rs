//! # fle-bench — Criterion benchmarks
//!
//! One bench target per reproduced table/figure (the README's "Paper
//! section → module table" maps them to the paper):
//!
//! * `bench_coalition` — Figure 1 layout algebra and rendering.
//! * `bench_attacks` — Claim B.1, Theorem 4.2, Theorem C.1, Theorem 4.3.
//! * `bench_resilience` — Theorem 5.1 (honest runs + infeasibility scans).
//! * `bench_phase` — Theorem 6.1 and Appendix E.4.
//! * `bench_topology` — Theorem 7.2 / Figure 2 machinery.
//! * `bench_reductions` — Theorem 8.1.
//! * `bench_sync` — Lemma D.5 / Section 6 synchronization probes.
//! * `bench_baselines` — Section 1.1 message-complexity baselines.
//! * `bench_harness` — the `fle-harness` batch runner vs the legacy
//!   serial trial loop (allocation reuse and thread fan-out).
//!
//! Run with `cargo bench --workspace`. The benches exercise exactly the
//! code paths the `fle_lab` experiments use, so their throughput numbers
//! double as a capacity plan for scaling the experiments up.

/// Ring sizes used across the benches, chosen so every attack in the
/// suite is feasible at the largest size.
pub const BENCH_SIZES: &[usize] = &[64, 256];

/// A larger size for the cheap honest-execution benches.
pub const BENCH_SIZE_LARGE: usize = 1024;
