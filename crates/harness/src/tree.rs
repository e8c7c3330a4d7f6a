//! Tree-dictator grids: Theorem 7.2's simulated-tree protocol under its
//! dictator coalition, swept over deterministic seeds.

use crate::partial::{ran, ReportPartial};
use crate::run_batch_range_grouped;
use crate::spec::TreeSweep;
use fle_topology::tree_fle::TreeSumFle;

/// Runs trials `start..end` (global indices and seeds) of a
/// tree-dictator sweep into a mergeable [`ReportPartial`] whose `attack`
/// arm counts how often the dictator coalition forced its target
/// (Theorem 7.2 predicts: always).
///
/// Each worker thread resolves the graph and its Claim F.5 partition
/// once; per trial only the seeded protocol instance is rebuilt.
/// Panicking trials are contained as recorded faults.
///
/// # Errors
///
/// If the graph family parameters are invalid — the same conditions
/// [`SweepSpec::validate`](crate::SweepSpec::validate) reports. A
/// malformed spec is a `Result`, never a worker panic.
pub(crate) fn tree_partial(cfg: &TreeSweep, start: u64, end: u64) -> Result<ReportPartial, String> {
    let n = cfg.graph.n();
    // Validate the spec once up front so workers can only fail per-trial.
    cfg.graph.resolve()?;
    let label = format!("TreeSumFle:{}", cfg.graph.label());
    let empty = ReportPartial::new_attack(&label, n, cfg.batch.base_seed, cfg.batch.trials);
    Ok(ReportPartial::merged(run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        1,
        || cfg.graph.resolve().expect("graph validated above"),
        |_, _, _, _| {},
        |(graph, partition), index, derived| {
            let seed = cfg.seed_mode.resolve(index, derived);
            let target = cfg.target.resolve(seed, n) % n as u64;
            let exec = TreeSumFle::new(graph, partition, seed).run_with_dictator(target);
            ran(&exec, exec.outcome.elected() == Some(target))
        },
        || empty.clone(),
        ReportPartial::record_trial,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GraphSpec, SeedMode, TargetSpec};
    use crate::{run_sweep, BatchConfig, SweepSpec};

    #[test]
    fn dictator_always_wins_across_graph_families() {
        for graph in [
            GraphSpec::Path(8),
            GraphSpec::Grid { rows: 3, cols: 4 },
            GraphSpec::Figure2,
        ] {
            let report = run_sweep(&SweepSpec::TreeDictator(TreeSweep {
                graph,
                batch: BatchConfig {
                    trials: 12,
                    base_seed: 0,
                    threads: 1,
                },
                target: TargetSpec::SeedProduct { multiplier: 5 },
                seed_mode: SeedMode::RawIndex,
            }))
            .expect("valid spec");
            let arm = report.attack.expect("tree sweeps carry the arm");
            assert_eq!(arm.successes, 12, "{graph:?}");
            assert_eq!(arm.infeasible, 0, "{graph:?}");
            assert_eq!(report.n, graph.n(), "{graph:?}");
        }
    }

    #[test]
    fn tree_sweep_is_thread_count_invariant() {
        let sweep = |threads| {
            run_sweep(&SweepSpec::TreeDictator(TreeSweep {
                graph: GraphSpec::RandomConnected {
                    n: 12,
                    permille: 250,
                    seed: 4,
                },
                batch: BatchConfig {
                    trials: 24,
                    base_seed: 7,
                    threads,
                },
                target: TargetSpec::Fixed(3),
                seed_mode: SeedMode::Derived,
            }))
            .expect("valid spec")
        };
        let baseline = sweep(1);
        for threads in [2, 8] {
            assert_eq!(sweep(threads).to_json(), baseline.to_json());
        }
    }
}
