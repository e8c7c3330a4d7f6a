//! Declarative sweep specifications: honest grids, attack grids and
//! tree-dictator grids under one [`SweepSpec`] umbrella.
//!
//! Specs round-trip through a serde-free JSON encoding
//! ([`SweepSpec::to_json`] / [`SweepSpec::parse_json`]) so scenario
//! files can be checked into experiment repositories and replayed
//! byte-identically. [`SweepSpec::validate`] cross-checks every
//! reference (ring sizes, coalition layouts, target ranges) and returns
//! actionable errors *before* any trial runs.

use crate::batch::MAX_THREADS;
use crate::json::Json;
use crate::sweep::{HonestSweep, ProtocolKind, MAX_BATCH_WIDTH};
use crate::BatchConfig;
use fle_attacks::{build_runner, cubic_distances, AttackKind};
use fle_core::Coalition;
use fle_topology::{figure2_graph, Graph, TreePartition};
use ring_sim::{
    default_step_limit, CrashInstant, FaultConfig, LatencySpec, LinkProfile, TimedNetConfig,
};

/// How per-trial protocol seeds are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Seed trial `i` with [`trial_seed`](crate::trial_seed)`(base_seed, i)`
    /// — the harness's default well-mixed stream.
    #[default]
    Derived,
    /// Seed trial `i` with the raw index `i` itself. This reproduces the
    /// historical per-table loops (`for seed in 0..trials`) exactly, so
    /// migrated experiments keep their published numbers.
    RawIndex,
}

impl SeedMode {
    fn name(self) -> &'static str {
        match self {
            SeedMode::Derived => "derived",
            SeedMode::RawIndex => "raw_index",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "derived" => Ok(SeedMode::Derived),
            "raw_index" => Ok(SeedMode::RawIndex),
            other => Err(format!(
                "unknown seed_mode \"{other}\" (expected \"derived\" | \"raw_index\")"
            )),
        }
    }

    /// The protocol seed for trial `index` given the harness-derived
    /// `derived` seed.
    pub fn resolve(self, index: u64, derived: u64) -> u64 {
        match self {
            SeedMode::Derived => derived,
            SeedMode::RawIndex => index,
        }
    }
}

/// How the per-trial attack target is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSpec {
    /// The same target every trial.
    Fixed(u64),
    /// `target = (seed * multiplier) % n` — the historical per-table
    /// "rotate the target with the seed" policy.
    SeedProduct {
        /// The multiplier applied to the trial's protocol seed.
        multiplier: u64,
    },
}

impl TargetSpec {
    /// The target for a trial with protocol seed `seed` on a ring/graph
    /// of `n`.
    pub fn resolve(self, seed: u64, n: usize) -> u64 {
        match self {
            TargetSpec::Fixed(v) => v,
            TargetSpec::SeedProduct { multiplier } => seed.wrapping_mul(multiplier) % n as u64,
        }
    }

    fn to_json(self) -> String {
        match self {
            TargetSpec::Fixed(v) => format!("{{\"policy\":\"fixed\",\"value\":{v}}}"),
            TargetSpec::SeedProduct { multiplier } => {
                format!("{{\"policy\":\"seed_product\",\"multiplier\":{multiplier}}}")
            }
        }
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "target";
        match req_str(v, "policy", ctx)? {
            "fixed" => {
                check_keys(v, &["policy", "value"], ctx)?;
                Ok(TargetSpec::Fixed(req_u64(v, "value", ctx)?))
            }
            "seed_product" => {
                check_keys(v, &["policy", "multiplier"], ctx)?;
                Ok(TargetSpec::SeedProduct {
                    multiplier: req_u64(v, "multiplier", ctx)?,
                })
            }
            other => Err(format!(
                "unknown target policy \"{other}\" (expected \"fixed\" | \"seed_product\")"
            )),
        }
    }
}

/// How the phase protocols' random-function key is chosen per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKeySpec {
    /// The same key every trial (hoistable: the random function is built
    /// once per worker).
    Fixed(u64),
    /// `fn_key = seed ^ mask` — a fresh random function per trial, as
    /// the historical phase-attack tables drew them.
    SeedXor(u64),
}

impl FnKeySpec {
    /// The random-function key for a trial with protocol seed `seed`.
    pub fn resolve(self, seed: u64) -> u64 {
        match self {
            FnKeySpec::Fixed(v) => v,
            FnKeySpec::SeedXor(mask) => seed ^ mask,
        }
    }

    fn to_json(self) -> String {
        match self {
            FnKeySpec::Fixed(v) => format!("{{\"mode\":\"fixed\",\"value\":{v}}}"),
            FnKeySpec::SeedXor(mask) => format!("{{\"mode\":\"seed_xor\",\"mask\":{mask}}}"),
        }
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "fn_key";
        match req_str(v, "mode", ctx)? {
            "fixed" => {
                check_keys(v, &["mode", "value"], ctx)?;
                Ok(FnKeySpec::Fixed(req_u64(v, "value", ctx)?))
            }
            "seed_xor" => {
                check_keys(v, &["mode", "mask"], ctx)?;
                Ok(FnKeySpec::SeedXor(req_u64(v, "mask", ctx)?))
            }
            other => Err(format!(
                "unknown fn_key mode \"{other}\" (expected \"fixed\" | \"seed_xor\")"
            )),
        }
    }
}

/// The delivery discipline trials run under.
///
/// `Fifo` is the fused global-FIFO fast path every historical sweep used;
/// `Timed` runs trials on the virtual-time scheduler with a uniform
/// per-link [`LatencySpec`] plus optional loss and duplication (both in
/// permille for lossless integer JSON). A `Timed` schedule whose latency
/// is [`LatencySpec::ZERO`] and whose loss/dup are 0 produces
/// bit-identical outcomes to `Fifo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleSpec {
    /// Global-FIFO delivery (the default).
    #[default]
    Fifo,
    /// Timed delivery: latency draws, loss and duplication per link.
    Timed {
        /// Per-link latency distribution.
        latency: LatencySpec,
        /// Per-message drop probability in thousandths (0..=1000).
        loss_permille: u32,
        /// Per-message duplication probability in thousandths (0..=1000).
        dup_permille: u32,
    },
}

impl ScheduleSpec {
    /// The uniform [`TimedNetConfig`] this schedule runs on, or `None`
    /// for the FIFO fast path.
    pub fn timed_net(&self) -> Option<TimedNetConfig> {
        match *self {
            ScheduleSpec::Fifo => None,
            ScheduleSpec::Timed {
                latency,
                loss_permille,
                dup_permille,
            } => Some(TimedNetConfig::uniform(LinkProfile {
                latency,
                loss_permille,
                dup_permille,
                gap_ns: 0,
            })),
        }
    }

    fn latency_to_json(latency: LatencySpec) -> String {
        match latency {
            LatencySpec::Constant { ns } => format!("{{\"dist\":\"constant\",\"ns\":{ns}}}"),
            LatencySpec::Uniform { lo, hi } => {
                format!("{{\"dist\":\"uniform\",\"lo\":{lo},\"hi\":{hi}}}")
            }
            LatencySpec::TwoPoint {
                lo,
                hi,
                hi_permille,
            } => format!(
                "{{\"dist\":\"two_point\",\"lo\":{lo},\"hi\":{hi},\"hi_permille\":{hi_permille}}}"
            ),
        }
    }

    fn parse_latency(v: &Json) -> Result<LatencySpec, String> {
        let ctx = "latency";
        match req_str(v, "dist", ctx)? {
            "constant" => {
                check_keys(v, &["dist", "ns"], ctx)?;
                Ok(LatencySpec::Constant {
                    ns: req_u64(v, "ns", ctx)?,
                })
            }
            "uniform" => {
                check_keys(v, &["dist", "lo", "hi"], ctx)?;
                Ok(LatencySpec::Uniform {
                    lo: req_u64(v, "lo", ctx)?,
                    hi: req_u64(v, "hi", ctx)?,
                })
            }
            "two_point" => {
                check_keys(v, &["dist", "lo", "hi", "hi_permille"], ctx)?;
                let hi_permille = req_u64(v, "hi_permille", ctx)?;
                let hi_permille = u32::try_from(hi_permille)
                    .map_err(|_| "latency: \"hi_permille\" out of range".to_string())?;
                Ok(LatencySpec::TwoPoint {
                    lo: req_u64(v, "lo", ctx)?,
                    hi: req_u64(v, "hi", ctx)?,
                    hi_permille,
                })
            }
            other => Err(format!(
                "unknown latency dist \"{other}\" (expected constant | uniform | two_point)"
            )),
        }
    }

    fn to_json(self) -> String {
        match self {
            ScheduleSpec::Fifo => "{\"mode\":\"fifo\"}".to_string(),
            ScheduleSpec::Timed {
                latency,
                loss_permille,
                dup_permille,
            } => format!(
                "{{\"mode\":\"timed\",\"latency\":{},\"loss_permille\":{loss_permille},\
                 \"dup_permille\":{dup_permille}}}",
                Self::latency_to_json(latency)
            ),
        }
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "schedule";
        match req_str(v, "mode", ctx)? {
            "fifo" => {
                check_keys(v, &["mode"], ctx)?;
                Ok(ScheduleSpec::Fifo)
            }
            "timed" => {
                check_keys(
                    v,
                    &["mode", "latency", "loss_permille", "dup_permille"],
                    ctx,
                )?;
                let latency = match v.get("latency") {
                    Some(obj) => Self::parse_latency(obj)?,
                    None => LatencySpec::ZERO,
                };
                let loss = opt_u64(v, "loss_permille", 0)?;
                let loss_permille = u32::try_from(loss)
                    .map_err(|_| "schedule: \"loss_permille\" out of range".to_string())?;
                let dup = opt_u64(v, "dup_permille", 0)?;
                let dup_permille = u32::try_from(dup)
                    .map_err(|_| "schedule: \"dup_permille\" out of range".to_string())?;
                Ok(ScheduleSpec::Timed {
                    latency,
                    loss_permille,
                    dup_permille,
                })
            }
            other => Err(format!(
                "unknown schedule mode \"{other}\" (expected \"fifo\" | \"timed\")"
            )),
        }
    }

    /// Cross-checks the schedule's parameters on a ring of `n`:
    /// probabilities within [0, 1000] permille, non-degenerate latency
    /// ranges, and a virtual clock that cannot saturate.
    fn validate(&self, n: usize) -> Result<(), String> {
        let ScheduleSpec::Timed {
            latency,
            loss_permille,
            dup_permille,
        } = *self
        else {
            return Ok(());
        };
        require(
            loss_permille <= 1000,
            &format!("schedule loss_permille must be <= 1000, got {loss_permille}"),
        )?;
        require(
            dup_permille <= 1000,
            &format!("schedule dup_permille must be <= 1000, got {dup_permille}"),
        )?;
        let longest = match latency {
            LatencySpec::Constant { ns } => ns,
            LatencySpec::Uniform { lo, hi } => {
                require(
                    hi > lo,
                    &format!("uniform latency needs hi > lo, got lo={lo} hi={hi}"),
                )?;
                hi - 1
            }
            LatencySpec::TwoPoint {
                lo,
                hi,
                hi_permille,
            } => {
                require(
                    hi_permille <= 1000,
                    &format!("two_point hi_permille must be <= 1000, got {hi_permille}"),
                )?;
                lo.max(hi)
            }
        };
        // A run takes at most `default_step_limit(n)` steps, each sending
        // at most one latency past the clock, so no arrival time exceeds
        // `(limit + 1) × longest`. Past u64 the clock would saturate and
        // the tied arrivals pop in send order: a schedule nobody asked for.
        let hops = default_step_limit(n) + 1;
        require(
            hops.checked_mul(longest).is_some(),
            &format!(
                "timed schedule: latency up to {longest} ns overflows the 64-bit virtual clock \
                 over {hops} steps at n={n}; the limit is {} ns",
                u64::MAX / hops
            ),
        )
    }
}

/// Deterministic crash-fault injection for a sweep: per trial,
/// `crashes` distinct nodes crash-stop at instants drawn uniformly inside
/// `window`, optionally recovering `recover` clock units later (see
/// [`ring_sim::fault`]). Serialized as a `"fault"` key that is emitted
/// only when present, so fault-free specs (and their sha pins and
/// checkpoint spec hashes) are byte-unchanged.
///
/// Crash-stop faults run every trial scalar. Recovering faults keep the
/// lockstep width on FIFO links and on a timed net of one constant
/// latency, with one plan per lane; only the lanes a crash hits and does
/// not end on the spot rerun scalar (see
/// [`HonestSweep::resolved_batch_width`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Distinct nodes to crash per trial (`1 ..= n-1`).
    pub crashes: u64,
    /// The crash-instant window: instants are drawn uniformly in
    /// `[0, bound)` on the window's clock ([`CrashInstant::Deliveries`]
    /// for the untimed paths, [`CrashInstant::VirtualNs`] for timed
    /// schedules).
    pub window: CrashInstant,
    /// Optional recovery delay after each crash, in the window's units.
    pub recover: Option<u64>,
}

impl FaultSpec {
    /// The engine-level [`FaultConfig`] this spec draws plans from.
    pub fn config(&self) -> FaultConfig {
        FaultConfig {
            crashes: self.crashes,
            window: self.window,
            recover_after: self.recover,
        }
    }

    fn to_json(self) -> String {
        let window = match self.window {
            CrashInstant::Deliveries(d) => format!("\"window_deliveries\":{d}"),
            CrashInstant::VirtualNs(t) => format!("\"window_ns\":{t}"),
        };
        let recover = match self.recover {
            None => String::new(),
            Some(r) => format!(",\"recover\":{r}"),
        };
        format!("{{\"crashes\":{},{window}{recover}}}", self.crashes)
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "fault";
        check_keys(
            v,
            &["crashes", "window_deliveries", "window_ns", "recover"],
            ctx,
        )?;
        let window = match (v.get("window_deliveries"), v.get("window_ns")) {
            (Some(_), Some(_)) => {
                return Err(
                    "fault: \"window_deliveries\" and \"window_ns\" are mutually exclusive"
                        .to_string(),
                );
            }
            (Some(_), None) => CrashInstant::Deliveries(req_u64(v, "window_deliveries", ctx)?),
            (None, Some(_)) => CrashInstant::VirtualNs(req_u64(v, "window_ns", ctx)?),
            (None, None) => {
                return Err("fault: missing \"window_deliveries\" or \"window_ns\"".to_string());
            }
        };
        let recover = match v.get("recover") {
            None => None,
            Some(_) => Some(req_u64(v, "recover", ctx)?),
        };
        Ok(FaultSpec {
            crashes: req_u64(v, "crashes", ctx)?,
            window,
            recover,
        })
    }

    fn validate(&self, n: usize, schedule: &ScheduleSpec) -> Result<(), String> {
        require(self.crashes >= 1, "fault crashes must be >= 1")?;
        require(
            self.crashes < n as u64,
            &format!(
                "fault crashes must leave at least one live node (crashes < n={n}), got {}",
                self.crashes
            ),
        )?;
        require(self.window.bound() >= 1, "fault window bound must be >= 1")?;
        if let Some(recover) = self.recover {
            // Recovery instants are `at + recover` with `at < bound`.
            require(
                self.window.bound().checked_add(recover).is_some(),
                &format!(
                    "fault window bound {} plus recover {recover} overflows the 64-bit clock; \
                     their sum must be at most {}",
                    self.window.bound(),
                    u64::MAX
                ),
            )?;
        }
        // The window's clock must match the schedule's: crash instants
        // are compared against delivery counts on the fifo path and
        // against virtual time on the timed path.
        match (self.window.is_timed(), schedule) {
            (true, ScheduleSpec::Timed { .. }) | (false, ScheduleSpec::Fifo) => Ok(()),
            (true, _) => Err(
                "fault window_ns requires a timed schedule (use window_deliveries on fifo)"
                    .to_string(),
            ),
            (false, _) => Err(
                "fault window_deliveries requires the fifo schedule (use window_ns on timed)"
                    .to_string(),
            ),
        }
    }
}

/// Where the coalition sits on the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoalitionSpec {
    /// `k` adversaries at positions `(offset + i·n/k) mod n`.
    EquallySpaced {
        /// Coalition size.
        k: usize,
        /// Position of the first adversary.
        offset: usize,
    },
    /// `k` consecutive adversaries starting at `start`.
    Contiguous {
        /// Coalition size.
        k: usize,
        /// First position of the block.
        start: usize,
    },
    /// Exactly these ring positions.
    Explicit {
        /// The adversary positions.
        positions: Vec<usize>,
    },
    /// `k` positions drawn uniformly without replacement from a
    /// deterministic layout stream (for the randomly-located attack).
    RandomLocated {
        /// Coalition size.
        k: usize,
        /// Seed of the layout draw (independent of trial seeds).
        layout_seed: u64,
    },
    /// The cubic attack's own Theorem 4.3 geometric layout for the ring
    /// size at hand.
    Cubic,
    /// A single adversary (for the single-deviator attacks).
    Single {
        /// The adversary's position.
        position: usize,
    },
}

impl CoalitionSpec {
    /// Resolves the placement into concrete positions on a ring of `n`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the layout cannot be built (empty,
    /// out-of-range positions, or a ring too small for the cubic plan).
    pub fn resolve(&self, n: usize) -> Result<Coalition, String> {
        let built = match self {
            CoalitionSpec::EquallySpaced { k, offset } => Coalition::equally_spaced(n, *k, *offset),
            CoalitionSpec::Contiguous { k, start } => Coalition::consecutive(n, *k, *start),
            CoalitionSpec::Explicit { positions } => Coalition::new(n, positions.clone()),
            CoalitionSpec::RandomLocated { k, layout_seed } => {
                Coalition::random_k(n, *k, *layout_seed)
            }
            CoalitionSpec::Cubic => {
                return cubic_distances(n)
                    .map(|plan| plan.coalition())
                    .map_err(|e| e.to_string());
            }
            CoalitionSpec::Single { position } => Coalition::new(n, vec![*position]),
        };
        built.map_err(|e| format!("coalition: {e}"))
    }

    fn to_json(&self) -> String {
        match self {
            CoalitionSpec::EquallySpaced { k, offset } => {
                format!("{{\"placement\":\"equally_spaced\",\"k\":{k},\"offset\":{offset}}}")
            }
            CoalitionSpec::Contiguous { k, start } => {
                format!("{{\"placement\":\"contiguous\",\"k\":{k},\"start\":{start}}}")
            }
            CoalitionSpec::Explicit { positions } => {
                let list = positions
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{\"placement\":\"explicit\",\"positions\":[{list}]}}")
            }
            CoalitionSpec::RandomLocated { k, layout_seed } => {
                format!(
                    "{{\"placement\":\"random_located\",\"k\":{k},\"layout_seed\":{layout_seed}}}"
                )
            }
            CoalitionSpec::Cubic => "{\"placement\":\"cubic\"}".to_string(),
            CoalitionSpec::Single { position } => {
                format!("{{\"placement\":\"single\",\"position\":{position}}}")
            }
        }
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "coalition";
        match req_str(v, "placement", ctx)? {
            "equally_spaced" => {
                check_keys(v, &["placement", "k", "offset"], ctx)?;
                Ok(CoalitionSpec::EquallySpaced {
                    k: req_usize(v, "k", ctx)?,
                    offset: req_usize(v, "offset", ctx)?,
                })
            }
            "contiguous" => {
                check_keys(v, &["placement", "k", "start"], ctx)?;
                Ok(CoalitionSpec::Contiguous {
                    k: req_usize(v, "k", ctx)?,
                    start: req_usize(v, "start", ctx)?,
                })
            }
            "explicit" => {
                check_keys(v, &["placement", "positions"], ctx)?;
                let arr = req(v, "positions", ctx)?
                    .as_array()
                    .ok_or_else(|| "coalition: \"positions\" must be an array".to_string())?;
                let positions = arr
                    .iter()
                    .map(|p| {
                        p.as_usize()
                            .ok_or_else(|| "coalition: positions must be integers".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(CoalitionSpec::Explicit { positions })
            }
            "random_located" => {
                check_keys(v, &["placement", "k", "layout_seed"], ctx)?;
                Ok(CoalitionSpec::RandomLocated {
                    k: req_usize(v, "k", ctx)?,
                    layout_seed: req_u64(v, "layout_seed", ctx)?,
                })
            }
            "cubic" => {
                check_keys(v, &["placement"], ctx)?;
                Ok(CoalitionSpec::Cubic)
            }
            "single" => {
                check_keys(v, &["placement", "position"], ctx)?;
                Ok(CoalitionSpec::Single {
                    position: req_usize(v, "position", ctx)?,
                })
            }
            other => Err(format!(
                "unknown coalition placement \"{other}\" (expected equally_spaced | contiguous | \
                 explicit | random_located | cubic | single)"
            )),
        }
    }
}

/// The largest ring or graph [`SweepSpec::validate`] admits: the biggest
/// size the experiments sweep. Honest phase nodes keep `O(n)` state each,
/// so one trial's memory grows as `n²`; well past this size it no longer
/// fits a worker.
const MAX_N: usize = 4096;

/// The graph family a tree-dictator sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSpec {
    /// A path on `n` vertices.
    Path(usize),
    /// A cycle on `n` vertices.
    Cycle(usize),
    /// The complete graph on `n` vertices.
    Complete(usize),
    /// A `rows × cols` grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A uniform random recursive tree.
    RandomTree {
        /// Vertex count.
        n: usize,
        /// Structure seed.
        seed: u64,
    },
    /// A random tree plus Bernoulli extra edges with probability
    /// `permille / 1000` (stored as an integer for lossless JSON).
    RandomConnected {
        /// Vertex count.
        n: usize,
        /// Edge probability in thousandths.
        permille: u32,
        /// Structure seed.
        seed: u64,
    },
    /// The paper's Figure 2 clique-chain (16 vertices) with its
    /// published partition.
    Figure2,
}

impl GraphSpec {
    /// The vertex count of the resolved graph.
    pub fn n(self) -> usize {
        match self {
            GraphSpec::Path(n) | GraphSpec::Cycle(n) | GraphSpec::Complete(n) => n,
            // An overflowing product is past any size limit anyway.
            GraphSpec::Grid { rows, cols } => rows.saturating_mul(cols),
            GraphSpec::RandomTree { n, .. } | GraphSpec::RandomConnected { n, .. } => n,
            GraphSpec::Figure2 => 16,
        }
    }

    /// Builds the graph and its Claim F.5 partition (Figure 2 uses its
    /// published partition instead).
    ///
    /// # Errors
    ///
    /// A message when the family parameters are out of range (e.g. a
    /// cycle on fewer than 3 vertices).
    pub fn resolve(self) -> Result<(Graph, TreePartition), String> {
        let graph = match self {
            GraphSpec::Path(n) => {
                require(n >= 2, "path graph needs n >= 2")?;
                Graph::path(n)
            }
            GraphSpec::Cycle(n) => {
                require(n >= 3, "cycle graph needs n >= 3")?;
                Graph::cycle(n)
            }
            GraphSpec::Complete(n) => {
                require(n >= 2, "complete graph needs n >= 2")?;
                Graph::complete(n)
            }
            GraphSpec::Grid { rows, cols } => {
                require(rows >= 1 && cols >= 1, "grid dimensions must be positive")?;
                require(
                    rows.checked_mul(cols).is_some_and(|v| v >= 2),
                    "grid needs at least 2 vertices",
                )?;
                Graph::grid(rows, cols)
            }
            GraphSpec::RandomTree { n, seed } => {
                require(n >= 2, "random tree needs n >= 2")?;
                Graph::random_tree(n, seed)
            }
            GraphSpec::RandomConnected { n, permille, seed } => {
                require(n >= 2, "random connected graph needs n >= 2")?;
                require(permille <= 1000, "edge permille must be <= 1000")?;
                Graph::random_connected(n, f64::from(permille) / 1000.0, seed)
            }
            GraphSpec::Figure2 => return Ok(figure2_graph()),
        };
        let partition = TreePartition::claim_f5(&graph);
        Ok((graph, partition))
    }

    /// A short display name for report labels (e.g. `"grid3x4"`).
    pub fn label(self) -> String {
        match self {
            GraphSpec::Path(n) => format!("path{n}"),
            GraphSpec::Cycle(n) => format!("cycle{n}"),
            GraphSpec::Complete(n) => format!("complete{n}"),
            GraphSpec::Grid { rows, cols } => format!("grid{rows}x{cols}"),
            GraphSpec::RandomTree { n, seed } => format!("rtree{n}s{seed}"),
            GraphSpec::RandomConnected { n, permille, seed } => {
                format!("gnp{n}p{permille}s{seed}")
            }
            GraphSpec::Figure2 => "figure2".to_string(),
        }
    }

    fn to_json(self) -> String {
        match self {
            GraphSpec::Path(n) => format!("{{\"family\":\"path\",\"n\":{n}}}"),
            GraphSpec::Cycle(n) => format!("{{\"family\":\"cycle\",\"n\":{n}}}"),
            GraphSpec::Complete(n) => format!("{{\"family\":\"complete\",\"n\":{n}}}"),
            GraphSpec::Grid { rows, cols } => {
                format!("{{\"family\":\"grid\",\"rows\":{rows},\"cols\":{cols}}}")
            }
            GraphSpec::RandomTree { n, seed } => {
                format!("{{\"family\":\"random_tree\",\"n\":{n},\"seed\":{seed}}}")
            }
            GraphSpec::RandomConnected { n, permille, seed } => format!(
                "{{\"family\":\"random_connected\",\"n\":{n},\"permille\":{permille},\"seed\":{seed}}}"
            ),
            GraphSpec::Figure2 => "{\"family\":\"figure2\"}".to_string(),
        }
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let ctx = "graph";
        match req_str(v, "family", ctx)? {
            "path" => {
                check_keys(v, &["family", "n"], ctx)?;
                Ok(GraphSpec::Path(req_usize(v, "n", ctx)?))
            }
            "cycle" => {
                check_keys(v, &["family", "n"], ctx)?;
                Ok(GraphSpec::Cycle(req_usize(v, "n", ctx)?))
            }
            "complete" => {
                check_keys(v, &["family", "n"], ctx)?;
                Ok(GraphSpec::Complete(req_usize(v, "n", ctx)?))
            }
            "grid" => {
                check_keys(v, &["family", "rows", "cols"], ctx)?;
                Ok(GraphSpec::Grid {
                    rows: req_usize(v, "rows", ctx)?,
                    cols: req_usize(v, "cols", ctx)?,
                })
            }
            "random_tree" => {
                check_keys(v, &["family", "n", "seed"], ctx)?;
                Ok(GraphSpec::RandomTree {
                    n: req_usize(v, "n", ctx)?,
                    seed: req_u64(v, "seed", ctx)?,
                })
            }
            "random_connected" => {
                check_keys(v, &["family", "n", "permille", "seed"], ctx)?;
                let permille = req_u64(v, "permille", ctx)?;
                let permille = u32::try_from(permille)
                    .map_err(|_| "graph: \"permille\" out of range".to_string())?;
                Ok(GraphSpec::RandomConnected {
                    n: req_usize(v, "n", ctx)?,
                    permille,
                    seed: req_u64(v, "seed", ctx)?,
                })
            }
            "figure2" => {
                check_keys(v, &["family"], ctx)?;
                Ok(GraphSpec::Figure2)
            }
            other => Err(format!(
                "unknown graph family \"{other}\" (expected path | cycle | complete | grid | \
                 random_tree | random_connected | figure2)"
            )),
        }
    }
}

/// An adversarial grid: one attack, one coalition layout, many seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSweep {
    /// Which attack to mount.
    pub attack: AttackKind,
    /// Ring size.
    pub n: usize,
    /// Random-function key policy (phase protocols only).
    pub fn_key: FnKeySpec,
    /// Trials / base seed / threads.
    pub batch: BatchConfig,
    /// Coalition layout.
    pub coalition: CoalitionSpec,
    /// Target policy.
    pub target: TargetSpec,
    /// Protocol seed stream.
    pub seed_mode: SeedMode,
    /// Delivery discipline (FIFO fast path or timed network).
    pub schedule: ScheduleSpec,
    /// Optional crash-fault injection (forces the scalar trial path).
    pub fault: Option<FaultSpec>,
}

/// A tree-dictator grid (Theorem 7.2's simulated-tree protocol): the
/// dictator coalition forces `target` on every graph trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSweep {
    /// Graph family to elect on.
    pub graph: GraphSpec,
    /// Trials / base seed / threads.
    pub batch: BatchConfig,
    /// Forced-winner policy.
    pub target: TargetSpec,
    /// Protocol seed stream.
    pub seed_mode: SeedMode,
}

/// Any sweep the harness can run: an honest grid, an attack grid or a
/// tree-dictator grid. Dispatch with [`run_sweep`](crate::run_sweep).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Honest executions of a ring protocol.
    Honest(HonestSweep),
    /// Adversarial executions of a ring attack.
    Attack(AttackSweep),
    /// Dictator executions of the simulated-tree protocol.
    TreeDictator(TreeSweep),
}

impl From<HonestSweep> for SweepSpec {
    fn from(cfg: HonestSweep) -> Self {
        SweepSpec::Honest(cfg)
    }
}

impl From<AttackSweep> for SweepSpec {
    fn from(cfg: AttackSweep) -> Self {
        SweepSpec::Attack(cfg)
    }
}

impl From<TreeSweep> for SweepSpec {
    fn from(cfg: TreeSweep) -> Self {
        SweepSpec::TreeDictator(cfg)
    }
}

impl SweepSpec {
    /// The batch shape (trials / base seed / threads) of any sweep kind —
    /// the trial index space that sharding and checkpointing partition.
    pub fn batch(&self) -> &BatchConfig {
        match self {
            SweepSpec::Honest(h) => &h.batch,
            SweepSpec::Attack(a) => &a.batch,
            SweepSpec::TreeDictator(t) => &t.batch,
        }
    }

    /// Serializes to the canonical single-line JSON encoding (fixed
    /// field order; parses back to an equal spec).
    pub fn to_json(&self) -> String {
        match self {
            SweepSpec::Honest(h) => {
                let schedule = match h.schedule {
                    ScheduleSpec::Fifo => String::new(),
                    s => format!(",\"schedule\":{}", s.to_json()),
                };
                // `batch_width: 0` (the default) is omitted so specs
                // written before lockstep batching round-trip byte-identically.
                let batch_width = match h.batch_width {
                    0 => String::new(),
                    w => format!(",\"batch_width\":{w}"),
                };
                // Likewise `fault`: emitted only when set, so every
                // fault-free sha pin and checkpoint spec-hash is unchanged.
                let fault = match h.fault {
                    None => String::new(),
                    Some(f) => format!(",\"fault\":{}", f.to_json()),
                };
                format!(
                    "{{\"sweep\":\"honest\",\"protocol\":\"{}\",\"n\":{},\"fn_key\":{},\
                     \"trials\":{},\"base_seed\":{},\"threads\":{}{batch_width}{schedule}{fault}}}",
                    protocol_key(h.protocol),
                    h.n,
                    h.fn_key,
                    h.batch.trials,
                    h.batch.base_seed,
                    h.batch.threads
                )
            }
            SweepSpec::Attack(a) => {
                let schedule = match a.schedule {
                    ScheduleSpec::Fifo => String::new(),
                    s => format!(",\"schedule\":{}", s.to_json()),
                };
                let fault = match a.fault {
                    None => String::new(),
                    Some(f) => format!(",\"fault\":{}", f.to_json()),
                };
                format!(
                    "{{\"sweep\":\"attack\",\"attack\":\"{}\",\"n\":{},\"trials\":{},\
                     \"base_seed\":{},\"threads\":{},\"fn_key\":{},\"coalition\":{},\
                     \"target\":{},\"seed_mode\":\"{}\"{schedule}{fault}}}",
                    a.attack.name(),
                    a.n,
                    a.batch.trials,
                    a.batch.base_seed,
                    a.batch.threads,
                    a.fn_key.to_json(),
                    a.coalition.to_json(),
                    a.target.to_json(),
                    a.seed_mode.name()
                )
            }
            SweepSpec::TreeDictator(t) => format!(
                "{{\"sweep\":\"tree_dictator\",\"graph\":{},\"trials\":{},\"base_seed\":{},\
                 \"threads\":{},\"target\":{},\"seed_mode\":\"{}\"}}",
                t.graph.to_json(),
                t.batch.trials,
                t.batch.base_seed,
                t.batch.threads,
                t.target.to_json(),
                t.seed_mode.name()
            ),
        }
    }

    /// Parses the JSON encoding produced by [`SweepSpec::to_json`]
    /// (field order is free; unknown fields are rejected).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn parse_json(src: &str) -> Result<Self, String> {
        let v = Json::parse(src)?;
        let kind = req_str(&v, "sweep", "spec")?;
        match kind {
            "honest" => {
                check_keys(
                    &v,
                    &[
                        "sweep",
                        "protocol",
                        "n",
                        "fn_key",
                        "trials",
                        "base_seed",
                        "threads",
                        "batch_width",
                        "schedule",
                        "fault",
                    ],
                    "honest sweep",
                )?;
                let protocol: ProtocolKind = req_str(&v, "protocol", "honest sweep")?.parse()?;
                Ok(SweepSpec::Honest(HonestSweep {
                    protocol,
                    n: req_usize(&v, "n", "honest sweep")?,
                    fn_key: opt_u64(&v, "fn_key", 0)?,
                    batch: parse_batch(&v)?,
                    // Saturated, so `validate` names the lane limit.
                    batch_width: usize::try_from(opt_u64(&v, "batch_width", 0)?)
                        .unwrap_or(usize::MAX),
                    schedule: parse_schedule(&v)?,
                    fault: parse_fault(&v)?,
                }))
            }
            "attack" => {
                check_keys(
                    &v,
                    &[
                        "sweep",
                        "attack",
                        "n",
                        "trials",
                        "base_seed",
                        "threads",
                        "fn_key",
                        "coalition",
                        "target",
                        "seed_mode",
                        "schedule",
                        "fault",
                    ],
                    "attack sweep",
                )?;
                let attack: AttackKind = req_str(&v, "attack", "attack sweep")?.parse()?;
                let fn_key = match v.get("fn_key") {
                    Some(obj) => FnKeySpec::parse(obj)?,
                    None => FnKeySpec::Fixed(0),
                };
                let target = match v.get("target") {
                    Some(obj) => TargetSpec::parse(obj)?,
                    None => TargetSpec::Fixed(0),
                };
                let seed_mode = match v.get("seed_mode") {
                    Some(s) => SeedMode::parse(
                        s.as_str()
                            .ok_or_else(|| "seed_mode must be a string".to_string())?,
                    )?,
                    None => SeedMode::Derived,
                };
                Ok(SweepSpec::Attack(AttackSweep {
                    attack,
                    n: req_usize(&v, "n", "attack sweep")?,
                    fn_key,
                    batch: parse_batch(&v)?,
                    coalition: CoalitionSpec::parse(req(&v, "coalition", "attack sweep")?)?,
                    target,
                    seed_mode,
                    schedule: parse_schedule(&v)?,
                    fault: parse_fault(&v)?,
                }))
            }
            "tree_dictator" => {
                check_keys(
                    &v,
                    &[
                        "sweep",
                        "graph",
                        "trials",
                        "base_seed",
                        "threads",
                        "target",
                        "seed_mode",
                    ],
                    "tree sweep",
                )?;
                let target = match v.get("target") {
                    Some(obj) => TargetSpec::parse(obj)?,
                    None => TargetSpec::Fixed(0),
                };
                let seed_mode = match v.get("seed_mode") {
                    Some(s) => SeedMode::parse(
                        s.as_str()
                            .ok_or_else(|| "seed_mode must be a string".to_string())?,
                    )?,
                    None => SeedMode::Derived,
                };
                Ok(SweepSpec::TreeDictator(TreeSweep {
                    graph: GraphSpec::parse(req(&v, "graph", "tree sweep")?)?,
                    batch: parse_batch(&v)?,
                    target,
                    seed_mode,
                }))
            }
            other => Err(format!(
                "unknown sweep kind \"{other}\" (expected \"honest\" | \"attack\" | \
                 \"tree_dictator\")"
            )),
        }
    }

    /// Cross-checks every reference in the spec without running trials:
    /// ring and graph sizes against the 4096-node size limit and the
    /// protocol minimums, `threads` against [`MAX_THREADS`],
    /// the lockstep width against [`MAX_BATCH_WIDTH`], coalition layouts
    /// against attack preconditions, targets against their ranges.
    ///
    /// # Errors
    ///
    /// An actionable message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // First, so no later check builds anything of an absurd size.
        let n = match self {
            SweepSpec::Honest(h) => h.n,
            SweepSpec::Attack(a) => a.n,
            SweepSpec::TreeDictator(t) => t.graph.n(),
        };
        require(
            n <= MAX_N,
            &format!("n={n} exceeds the size limit of {MAX_N} nodes"),
        )?;
        require(
            self.batch().threads <= MAX_THREADS,
            &format!("\"threads\" must be at most {MAX_THREADS}"),
        )?;
        match self {
            SweepSpec::Honest(h) => {
                require(
                    h.batch_width <= MAX_BATCH_WIDTH,
                    &format!("honest sweep: \"batch_width\" must be at most {MAX_BATCH_WIDTH}"),
                )?;
                let min = match h.protocol {
                    ProtocolKind::BasicLead | ProtocolKind::ALeadUni => 2,
                    ProtocolKind::PhaseAsyncLead | ProtocolKind::PhaseSumLead => 4,
                };
                require(
                    h.n >= min,
                    &format!("{} needs n >= {min}, got n={}", h.protocol.name(), h.n),
                )?;
                require(h.batch.trials >= 1, "trials must be >= 1")?;
                h.schedule.validate(h.n)?;
                if let Some(f) = &h.fault {
                    f.validate(h.n, &h.schedule)?;
                }
                Ok(())
            }
            SweepSpec::Attack(a) => {
                let min = if a.attack.uses_fn_key() { 4 } else { 2 };
                require(
                    a.n >= min,
                    &format!(
                        "{} needs n >= {min}, got n={}",
                        a.attack.protocol_name(),
                        a.n
                    ),
                )?;
                require(a.batch.trials >= 1, "trials must be >= 1")?;
                a.schedule.validate(a.n)?;
                if let Some(f) = &a.fault {
                    f.validate(a.n, &a.schedule)?;
                }
                let coalition = a.coalition.resolve(a.n)?;
                // Reuse the runner layer's layout checks (single-position
                // attacks, the cubic geometric layout, ...).
                build_runner(a.attack, a.n, &coalition).map_err(|e| e.to_string())?;
                if let TargetSpec::Fixed(v) = a.target {
                    match a.attack {
                        AttackKind::WakeupMask => require(
                            (v as usize) < coalition.k(),
                            &format!(
                                "wakeup_mask target is a coalition member index; {v} out of \
                                 range for k={}",
                                coalition.k()
                            ),
                        )?,
                        AttackKind::PhaseGuess | AttackKind::WakeupIdLie => {}
                        _ => require(
                            v < a.n as u64,
                            &format!("target {v} out of range for n={}", a.n),
                        )?,
                    }
                }
                Ok(())
            }
            SweepSpec::TreeDictator(t) => {
                require(t.batch.trials >= 1, "trials must be >= 1")?;
                t.graph.resolve()?;
                if let TargetSpec::Fixed(v) = t.target {
                    require(
                        v < t.graph.n() as u64,
                        &format!("target {v} out of range for graph n={}", t.graph.n()),
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// The short spelling of a protocol accepted by [`ProtocolKind`]'s
/// `FromStr` (used in spec files, as opposed to the display name).
pub fn protocol_key(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::BasicLead => "basic",
        ProtocolKind::ALeadUni => "alead",
        ProtocolKind::PhaseAsyncLead => "phase",
        ProtocolKind::PhaseSumLead => "phasesum",
    }
}

fn parse_schedule(v: &Json) -> Result<ScheduleSpec, String> {
    match v.get("schedule") {
        None => Ok(ScheduleSpec::Fifo),
        Some(obj) => ScheduleSpec::parse(obj),
    }
}

fn parse_fault(v: &Json) -> Result<Option<FaultSpec>, String> {
    match v.get("fault") {
        None => Ok(None),
        Some(obj) => FaultSpec::parse(obj).map(Some),
    }
}

fn parse_batch(v: &Json) -> Result<BatchConfig, String> {
    Ok(BatchConfig {
        trials: req_u64(v, "trials", "spec")?,
        base_seed: opt_u64(v, "base_seed", 0)?,
        threads: usize::try_from(opt_u64(v, "threads", 0)?)
            .map_err(|_| "\"threads\" out of range".to_string())?,
    })
}

pub(crate) fn require(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

pub(crate) fn check_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    let members = v
        .as_object()
        .ok_or_else(|| format!("{ctx} must be a JSON object"))?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown field \"{key}\" in {ctx} (expected one of: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

pub(crate) fn req<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing required field \"{key}\""))
}

pub(crate) fn req_str<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    req(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a string"))
}

pub(crate) fn req_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    req(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a non-negative integer"))
}

pub(crate) fn req_usize(v: &Json, key: &str, ctx: &str) -> Result<usize, String> {
    req(v, key, ctx)?
        .as_usize()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a non-negative integer"))
}

pub(crate) fn opt_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rushing_spec() -> SweepSpec {
        SweepSpec::Attack(AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(9),
            batch: BatchConfig {
                trials: 500,
                base_seed: 1,
                threads: 0,
            },
            coalition: CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
            target: TargetSpec::Fixed(3),
            seed_mode: SeedMode::Derived,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        })
    }

    #[test]
    fn attack_spec_round_trips_through_json() {
        let spec = rushing_spec();
        let json = spec.to_json();
        let parsed = SweepSpec::parse_json(&json).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json);
        spec.validate().unwrap();
    }

    #[test]
    fn honest_and_tree_specs_round_trip() {
        let honest = SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 64,
            fn_key: 9,
            batch: BatchConfig {
                trials: 500,
                base_seed: 1,
                threads: 0,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        });
        let tree = SweepSpec::TreeDictator(TreeSweep {
            graph: GraphSpec::Grid { rows: 3, cols: 4 },
            batch: BatchConfig {
                trials: 64,
                base_seed: 0,
                threads: 0,
            },
            target: TargetSpec::SeedProduct { multiplier: 5 },
            seed_mode: SeedMode::RawIndex,
        });
        for spec in [honest, tree] {
            let json = spec.to_json();
            assert_eq!(SweepSpec::parse_json(&json).unwrap(), spec);
            spec.validate().unwrap();
        }
    }

    #[test]
    fn fifo_specs_serialize_without_a_schedule_key() {
        // The default schedule is omitted from the encoding so existing
        // pinned spec files (and their shas) are unchanged.
        assert!(!rushing_spec().to_json().contains("schedule"));
    }

    #[test]
    fn timed_specs_round_trip_through_json() {
        let mut timed = rushing_spec();
        let SweepSpec::Attack(ref mut a) = timed else {
            unreachable!()
        };
        a.schedule = ScheduleSpec::Timed {
            latency: LatencySpec::TwoPoint {
                lo: 10,
                hi: 1000,
                hi_permille: 100,
            },
            loss_permille: 25,
            dup_permille: 5,
        };
        let json = timed.to_json();
        assert!(json.contains("\"schedule\":{\"mode\":\"timed\""), "{json}");
        let parsed = SweepSpec::parse_json(&json).unwrap();
        assert_eq!(parsed, timed);
        assert_eq!(parsed.to_json(), json);
        timed.validate().unwrap();

        let honest = SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 16,
            fn_key: 7,
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 0,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Timed {
                latency: LatencySpec::Uniform { lo: 0, hi: 50 },
                loss_permille: 0,
                dup_permille: 0,
            },
            fault: None,
        });
        let json = honest.to_json();
        assert_eq!(SweepSpec::parse_json(&json).unwrap(), honest);
        honest.validate().unwrap();
    }

    #[test]
    fn schedule_validation_names_the_violated_constraint() {
        let base = |schedule| {
            SweepSpec::Honest(HonestSweep {
                protocol: ProtocolKind::BasicLead,
                n: 8,
                fn_key: 0,
                batch: BatchConfig {
                    trials: 1,
                    base_seed: 0,
                    threads: 0,
                },
                batch_width: 0,
                schedule,
                fault: None,
            })
        };
        let err = base(ScheduleSpec::Timed {
            latency: LatencySpec::ZERO,
            loss_permille: 1001,
            dup_permille: 0,
        })
        .validate()
        .unwrap_err();
        assert!(err.contains("loss_permille must be <= 1000"), "{err}");

        let err = base(ScheduleSpec::Timed {
            latency: LatencySpec::Uniform { lo: 9, hi: 9 },
            loss_permille: 0,
            dup_permille: 0,
        })
        .validate()
        .unwrap_err();
        assert!(err.contains("uniform latency needs hi > lo"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_and_missing_fields() {
        let err = SweepSpec::parse_json(r#"{"sweep":"attack","n":16,"trials":5}"#).unwrap_err();
        assert!(err.contains("missing required field \"attack\""), "{err}");

        let err = SweepSpec::parse_json(
            r#"{"sweep":"honest","protocol":"phase","n":8,"trials":5,"bogus":1}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"bogus\""), "{err}");

        let err = SweepSpec::parse_json(r#"{"sweep":"picnic"}"#).unwrap_err();
        assert!(err.contains("unknown sweep kind"), "{err}");
    }

    #[test]
    fn validate_names_the_violated_constraint() {
        let SweepSpec::Attack(mut a) = rushing_spec() else {
            unreachable!()
        };
        a.target = TargetSpec::Fixed(99);
        let err = SweepSpec::Attack(a.clone()).validate().unwrap_err();
        assert!(err.contains("target 99 out of range"), "{err}");

        a.target = TargetSpec::Fixed(3);
        a.coalition = CoalitionSpec::Explicit {
            positions: vec![99],
        };
        let err = SweepSpec::Attack(a.clone()).validate().unwrap_err();
        assert!(err.contains("coalition"), "{err}");

        a.coalition = CoalitionSpec::EquallySpaced { k: 2, offset: 1 };
        a.attack = AttackKind::BasicSingle;
        let err = SweepSpec::Attack(a).validate().unwrap_err();
        assert!(err.contains("single adversary"), "{err}");
    }

    #[test]
    fn coalition_placements_resolve_deterministically() {
        let spec = CoalitionSpec::RandomLocated {
            k: 5,
            layout_seed: 7,
        };
        let a = spec.resolve(32).unwrap();
        let b = spec.resolve(32).unwrap();
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.k(), 5);

        let cubic = CoalitionSpec::Cubic.resolve(64).unwrap();
        assert_eq!(
            cubic.positions(),
            fle_attacks::cubic_distances(64)
                .unwrap()
                .coalition()
                .positions()
        );
    }
}
