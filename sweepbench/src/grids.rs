//! The workloads' sweep grids, generated from the workload seed.

use crp_predict::{Scenario, ScenarioLibrary};
use crp_protocols::ProtocolSpec;
use crp_sim::{SweepMatrix, SweepProtocol};

/// The Table-1 protocol columns of `kernel-grid`.
/// `fixed-probability` and `blind-trust` are left out: their 64·n
/// budget-exhaustion tails would make one cell the whole measurement.
pub const TABLE1_PROTOCOLS: [&str; 8] = [
    "decay",
    "sorted-guess-cycling",
    "willard",
    "coded-search",
    "advised-decay",
    "advised-willard",
    "det-advice-cd",
    "det-advice-no-cd",
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table-1 protocols × the six library scenarios on `SerialBackend`.
    KernelGrid,
    /// `decay` × `zipf` at a paper-scale universe on a warm local fleet.
    FleetWideUniverse,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::KernelGrid, Workload::FleetWideUniverse];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelGrid => "kernel-grid",
            Workload::FleetWideUniverse => "fleet-wide-universe",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the grids are: `Full` is the benchmark, `Tiny` keeps the
/// self-tests fast while exercising the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Minimal sizes for smoke tests.
    Tiny,
}

/// The shape of one workload's grid at one scale.
#[derive(Clone, Copy, Debug)]
struct Shape {
    universe: usize,
    /// Trials of the uniform (batched-kernel) columns.
    uniform_trials: usize,
    /// Trials of the per-node §3 `det-advice-*` columns.
    per_node_trials: usize,
}

fn shape(workload: Workload, scale: Scale) -> Shape {
    match (workload, scale) {
        // The uniform columns and the per-node columns each take about
        // half of a sweep at these budgets.
        (Workload::KernelGrid, Scale::Full) => Shape {
            universe: 1 << 10,
            uniform_trials: 8_000,
            per_node_trials: 1_600,
        },
        (Workload::KernelGrid, Scale::Tiny) => Shape {
            universe: 1 << 6,
            uniform_trials: 300,
            per_node_trials: 100,
        },
        (Workload::FleetWideUniverse, Scale::Full) => Shape {
            universe: 1 << 16,
            uniform_trials: 20_000,
            per_node_trials: 20_000,
        },
        (Workload::FleetWideUniverse, Scale::Tiny) => Shape {
            universe: 1 << 8,
            uniform_trials: 600,
            per_node_trials: 600,
        },
    }
}

/// Builds the workload's scenario axis (the set-up work the
/// `predict.library_build_ms` metric times).
///
/// # Errors
///
/// The library's error for an invalid universe.
pub fn scenarios(workload: Workload, scale: Scale) -> Result<Vec<Scenario>, String> {
    let library =
        ScenarioLibrary::new(shape(workload, scale).universe).map_err(|e| e.to_string())?;
    Ok(match workload {
        Workload::FleetWideUniverse => vec![library.zipf()],
        Workload::KernelGrid => library.all(),
    })
}

/// The workload's grid over `scenarios` with sweep seed `seed`.
///
/// # Errors
///
/// An unknown protocol name or a library error while probing horizons.
pub fn matrix(
    workload: Workload,
    scale: Scale,
    scenarios: &[Scenario],
    seed: u64,
) -> Result<SweepMatrix, String> {
    let shape = shape(workload, scale);
    let protocols: &[&str] = match workload {
        Workload::FleetWideUniverse => &["decay"],
        Workload::KernelGrid => &TABLE1_PROTOCOLS,
    };
    let mut matrix = SweepMatrix::new()
        .scenarios(scenarios.iter().cloned())
        .trials(shape.uniform_trials)
        .seed(seed);
    for &name in protocols {
        let trials = if name.starts_with("det-advice") {
            shape.per_node_trials
        } else {
            shape.uniform_trials
        };
        matrix = matrix.protocol(cli_column(name)?.trials(trials));
    }
    Ok(matrix)
}

/// The column `crp_experiments sweep --protocols <name>` builds: the
/// scenario's universe and advice, a population estimate of n/16, two
/// advice bits, and a 64·n round budget for protocols without a horizon
/// of their own.
fn cli_column(name: &str) -> Result<SweepProtocol, String> {
    let spec_for = {
        let name = name.to_string();
        move |s: &Scenario| {
            let n = s.distribution().max_size();
            ProtocolSpec::new(name.clone())
                .universe(n)
                .prediction(s.advice_condensed())
                .participants((n / 16).max(2))
                .advice_bits(2)
        }
    };
    let probe = ScenarioLibrary::new(64)
        .map_err(|e| e.to_string())?
        .bimodal();
    let protocol = spec_for(&probe)
        .build()
        .map_err(|e| format!("protocol {name}: {e}"))?;
    let has_horizon = protocol.horizon().is_some();
    Ok(
        SweepProtocol::from_scenario(name, spec_for).max_rounds_with(move |s| {
            if has_horizon {
                None
            } else {
                Some(64 * s.distribution().max_size())
            }
        }),
    )
}

/// Which grid a sweep works on.  Timed ops each run a grid of their own;
/// warm-up and replay grids get seeds of their own too, so no two uses
/// collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GridKey {
    /// The grid of timed op `n`.
    Op(u64),
    /// The warm-up grid of set-up repetition `n`.
    Warmup(u64),
    /// The grid the traced run replays layer calls on.
    Replay,
}

impl GridKey {
    /// The sweep seed of this grid under workload seed `seed`: one
    /// SplitMix64 step, so it is stable across platforms and releases.
    pub fn seed(self, seed: u64) -> u64 {
        let (salt, index): (u64, u64) = match self {
            GridKey::Op(n) => (1, n),
            GridKey::Warmup(n) => (2, n),
            GridKey::Replay => (3, 0),
        };
        let mut z = (seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ index.rotate_left(32))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
