//! The acceptance criterion of the batched trial-kernel layer: for every
//! protocol in the standard registry, a simulation executed with
//! [`KernelChoice::Batched`] must produce **bit-identical** `TrialStats`
//! to the scalar trial-at-a-time executor ([`KernelChoice::Scalar`]) —
//! same seed, same per-trial RNG streams, same accumulator fold order,
//! down to the last bit of the Welford moments and sketch quantiles.
//!
//! The kernels earn their speed from monomorphized fast paths (threshold
//! memoization, buffered draws, execute-once-and-replicate), so these
//! tests quantify over every registry protocol — uniform no-CD, uniform
//! CD and deterministic per-node alike — and over the fixed, sampled and
//! placed population shapes.

use crp_predict::ScenarioLibrary;
use crp_protocols::{ProtocolRegistry, ProtocolSpec};
use crp_sim::{
    KernelChoice, SerialBackend, ShardBackend, Simulation, SimulationBuilder, ThreadBackend,
};

/// A registry spec with every optional parameter supplied, so each
/// constructor finds what it needs (predictions for the §4 protocols,
/// advice bits for §3, an estimate for the baselines).
fn full_spec(name: &str, universe: usize) -> ProtocolSpec {
    let library = ScenarioLibrary::new(universe).unwrap();
    ProtocolSpec::new(name)
        .universe(universe)
        .prediction(library.bimodal().advice_condensed())
        .participants((universe / 16).max(2))
        .advice_bits(2)
}

/// Builds the same simulation twice — scalar and batched — and asserts
/// the stats agree bit for bit.
fn assert_kernel_equivalence(name: &str, build: impl Fn() -> SimulationBuilder) {
    let scalar = build().kernel(KernelChoice::Scalar).build().unwrap();
    let batched = build().kernel(KernelChoice::Batched).build().unwrap();
    assert_eq!(
        scalar.kernel_name(),
        None,
        "{name}: scalar selects no kernel"
    );
    // PartialEq on TrialStats compares every field bit for bit.
    assert_eq!(
        scalar.run().unwrap(),
        batched.run().unwrap(),
        "kernel diverged from the scalar executor for {name}"
    );
}

#[test]
fn every_registry_protocol_is_bit_identical_under_the_batched_kernel() {
    let universe = 256;
    let library = ScenarioLibrary::new(universe).unwrap();
    let scenario = library.bimodal();
    for name in ProtocolRegistry::standard().names() {
        // 700 trials = 3 shards, sampled population: the kernel must
        // reproduce the scalar path's population draws and shard merge.
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .truth(scenario.distribution().clone())
                .max_rounds(64 * universe)
                .trials(700)
                .seed(0xFEED)
        });
        // Fixed population, different seed and shard count.
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(full_spec(name, universe))
                .participants(12)
                .max_rounds(64 * universe)
                .trials(300)
                .seed(9)
        });
    }
}

#[test]
fn every_registry_protocol_selects_a_batched_fast_path() {
    // The registry's protocols are exactly the families the kernels are
    // monomorphized for; a protocol silently falling back to the scalar
    // executor under `auto` would be a performance regression.
    let universe = 256;
    for name in ProtocolRegistry::standard().names() {
        let simulation = Simulation::builder()
            .protocol(full_spec(name, universe))
            .participants(12)
            .max_rounds(64 * universe)
            .kernel(KernelChoice::Batched)
            .trials(10)
            .seed(1)
            .build()
            .unwrap();
        let kernel = simulation.kernel_name();
        assert!(kernel.is_some(), "{name} fell back to the scalar executor");
    }
}

#[test]
fn placed_populations_are_bit_identical_under_the_deterministic_kernel() {
    // Explicit placements drive the §3 deterministic protocols; the
    // kernel memoizes one execution and replicates it across trials.
    for name in ["det-advice-no-cd", "det-advice-cd"] {
        assert_kernel_equivalence(name, || {
            Simulation::builder()
                .protocol(ProtocolSpec::new(name).universe(256).advice_bits(2))
                .participant_ids(vec![100, 130, 200])
                .trials(40)
                .seed(7)
        });
    }
}

/// The backends a cell-wide kernel memo is shared across: one thread,
/// and worker threads racing on the same cell.
fn memo_sharing_backends() -> Vec<(&'static str, Box<dyn ShardBackend>)> {
    vec![
        ("serial", Box::new(SerialBackend)),
        ("thread-2", Box::new(ThreadBackend::new(2))),
        ("thread-8", Box::new(ThreadBackend::new(8))),
    ]
}

#[test]
fn the_cell_wide_deterministic_memo_is_bit_identical_on_every_backend() {
    // k is uniform over 2..=1024, so the shards of one cell draw
    // overlapping sets of participant counts: most executions are
    // served from outcomes another shard memoized.
    let library = ScenarioLibrary::new(1024).unwrap();
    let truth = library.uniform_sizes().distribution().clone();
    for name in ["det-advice-cd", "det-advice-no-cd"] {
        let build = |kernel| {
            Simulation::builder()
                .protocol(ProtocolSpec::new(name).universe(1024).advice_bits(2))
                .truth(truth.clone())
                .max_rounds(64 * 1024)
                .trials(1_800) // 8 shards of 256
                .seed(0xCE11)
                .kernel(kernel)
                .build()
                .unwrap()
        };
        let reference = build(KernelChoice::Scalar).run_on(&SerialBackend).unwrap();
        for (backend_name, backend) in memo_sharing_backends() {
            let batched = build(KernelChoice::Batched);
            assert_eq!(batched.kernel_name(), Some("deterministic"));
            assert_eq!(
                batched.run_on(backend.as_ref()).unwrap(),
                reference,
                "{name} on {backend_name} diverged from the scalar executor"
            );
        }
    }
}

#[test]
fn a_rejected_participant_count_fails_every_path_alike() {
    use crp_channel::{Feedback, NodeProtocol, ParticipantId};
    use crp_protocols::{NodeFactory, Protocol, ProtocolError, ProtocolKind};
    use rand::RngCore;

    /// A deterministic protocol that resolves after `k` rounds (node `i`
    /// transmits alone in round `k + i`) and rejects one participant
    /// count outright.
    struct RejectsOneCount(usize);
    struct WaitNode {
        transmit_round: usize,
    }
    impl NodeProtocol for WaitNode {
        fn decide(&mut self, round: usize, _rng: &mut dyn RngCore) -> bool {
            round == self.transmit_round
        }
        fn observe(&mut self, _round: usize, _feedback: Feedback) {}
    }
    impl NodeFactory for RejectsOneCount {
        fn build_nodes(
            &self,
            participants: &[ParticipantId],
        ) -> Result<Vec<Box<dyn NodeProtocol>>, ProtocolError> {
            let k = participants.len();
            if k == self.0 {
                return Err(ProtocolError::InvalidParameter {
                    what: format!("{k} participants rejected"),
                });
            }
            Ok(participants
                .iter()
                .map(|id| {
                    Box::new(WaitNode {
                        transmit_round: k + id.index(),
                    }) as Box<dyn NodeProtocol>
                })
                .collect())
        }
        fn deterministic(&self) -> bool {
            true
        }
    }
    impl Protocol for RejectsOneCount {
        fn name(&self) -> &str {
            "rejects-one-count"
        }
        fn kind(&self) -> ProtocolKind {
            ProtocolKind::NoCollisionDetection
        }
        fn behavior(&self) -> crp_protocols::Behavior<'_> {
            crp_protocols::Behavior::PerNode(self)
        }
    }

    // k is uniform over 2..=16: the rejected count shows up in several
    // of the 4 shards, after the cell memo already holds other counts.
    let truth = ScenarioLibrary::new(16)
        .unwrap()
        .uniform_sizes()
        .distribution()
        .clone();
    let build = |rejected, kernel| {
        Simulation::builder()
            .protocol_object(Box::new(RejectsOneCount(rejected)))
            .truth(truth.clone())
            .max_rounds(12)
            .trials(1_000)
            .seed(5)
            .kernel(kernel)
            .build()
            .unwrap()
    };
    let expected = build(5, KernelChoice::Scalar)
        .run_on(&SerialBackend)
        .unwrap_err();
    assert!(
        expected.to_string().contains("5 participants rejected"),
        "{expected}"
    );
    for (backend_name, backend) in memo_sharing_backends() {
        let batched = build(5, KernelChoice::Batched);
        assert_eq!(batched.kernel_name(), Some("deterministic"));
        assert_eq!(
            batched.run_on(backend.as_ref()).unwrap_err(),
            expected,
            "{backend_name}: the batched path must fail as the scalar path does"
        );
    }
    // Rejecting a count no trial draws leaves both paths succeeding,
    // with some trials over the 12-round budget.
    let reference = build(100, KernelChoice::Scalar)
        .run_on(&SerialBackend)
        .unwrap();
    for (backend_name, backend) in memo_sharing_backends() {
        assert_eq!(
            build(100, KernelChoice::Batched)
                .run_on(backend.as_ref())
                .unwrap(),
            reference,
            "{backend_name}"
        );
    }
}

#[test]
fn a_custom_protocol_object_falls_back_to_the_scalar_executor() {
    use crp_channel::{Feedback, NodeProtocol, ParticipantId};
    use crp_protocols::{NodeFactory, Protocol, ProtocolError, ProtocolKind};
    use rand::{Rng, RngCore};

    // A randomized per-node protocol must not select a kernel: its nodes
    // read the RNG, so execute-once-and-replicate would be wrong.
    struct CoinFlip;
    struct CoinNode;
    impl NodeProtocol for CoinNode {
        fn decide(&mut self, _round: usize, rng: &mut dyn RngCore) -> bool {
            rng.gen::<f64>() < 0.5
        }
        fn observe(&mut self, _round: usize, _feedback: Feedback) {}
    }
    impl NodeFactory for CoinFlip {
        fn build_nodes(
            &self,
            participants: &[ParticipantId],
        ) -> Result<Vec<Box<dyn NodeProtocol>>, ProtocolError> {
            Ok(participants
                .iter()
                .map(|_| Box::new(CoinNode) as Box<dyn NodeProtocol>)
                .collect())
        }
    }
    impl Protocol for CoinFlip {
        fn name(&self) -> &str {
            "coin-flip"
        }
        fn kind(&self) -> ProtocolKind {
            ProtocolKind::NoCollisionDetection
        }
        fn behavior(&self) -> crp_protocols::Behavior<'_> {
            crp_protocols::Behavior::PerNode(self)
        }
    }

    let simulation = Simulation::builder()
        .protocol_object(Box::new(CoinFlip))
        .participants(4)
        .max_rounds(1000)
        .kernel(KernelChoice::Batched)
        .trials(50)
        .seed(3)
        .build()
        .unwrap();
    assert_eq!(simulation.kernel_name(), None);
    // And it still runs — the scalar executor is the universal fallback.
    assert_eq!(simulation.run().unwrap().trials, 50);
}
