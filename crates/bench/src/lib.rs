//! # fle-bench — host of the workspace-wide tests and examples
//!
//! The integration suites in the repository-root `tests/` directory and
//! the walkthroughs in `examples/` exercise several crates at once, so
//! they are registered here, in the one crate that depends on all of
//! them (see this crate's `Cargo.toml`). Run them with
//! `cargo test -p fle-bench` and `cargo run --example <name>`.
//!
//! Throughput is measured outside the crates, on the real `fle_lab`
//! process: `python3 perfbench/run.py --workload <name>`.
