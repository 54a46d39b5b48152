//! The three workloads and their seeded inputs.
//!
//! Every workload is one closed loop at concurrency 1: a single caller
//! runs `optimize_circuit` on the workload's circuits back to back.
//! Inputs are rebuilt from `--seed` through the repository's own
//! generators (`suite::build`, `builders::synthetic_fabric`), keeping
//! each profile's gate mix, size and depth and deriving only the
//! generator seed. A run holds several seeded instances of each
//! profile, so its figures average over netlists rather than hang on
//! one draw. Instance 0 at seed [`DEFAULT_SEED`] reproduces
//! `suite::PROFILES` and `suite::SCALING_CLASSES` exactly.

use pops::delay::Library;
use pops::flow::FlowOptions;
use pops::netlist::{builders, suite, Circuit};
use pops::sta::{analyze, Sizing};

/// The seed whose derived generator seeds equal the committed ones.
pub const DEFAULT_SEED: u64 = 0;

/// The six suite circuits both suite workloads run, smallest first.
pub const SUITE_CIRCUITS: [&str; 6] = ["fpd", "c432", "c880", "c1908", "c6288", "c7552"];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six suite circuits at 0.8·T0: the paper's sizing regime.
    SuiteTight,
    /// The six suite circuits at 0.4·T0: buffering and De Morgan surgery.
    SuiteHard,
    /// synth10k at 1.5·T0 with the Vt pass: multi-corner STA probes.
    FabricVt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteTight,
        Workload::SuiteHard,
        Workload::FabricVt,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteTight => "suite_tight",
            Workload::SuiteHard => "suite_hard",
            Workload::FabricVt => "fabric_vt",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The constraint as a share of the all-minimum critical delay T0.
    pub fn tc_factor(self) -> f64 {
        match self {
            Workload::SuiteTight => 0.8,
            Workload::SuiteHard => 0.4,
            Workload::FabricVt => 1.5,
        }
    }

    /// Flow options: the defaults, plus the Vt pass on `fabric_vt`.
    pub fn options(self) -> FlowOptions {
        FlowOptions {
            vt_assignment: self == Workload::FabricVt,
            ..FlowOptions::default()
        }
    }

    /// Seeded instances of each profile in one run, sized so that one
    /// pass over them takes about 30 s on a 2-core host.
    pub fn instances(self) -> usize {
        match self {
            Workload::SuiteTight => 5,
            Workload::SuiteHard => 5,
            Workload::FabricVt => 6,
        }
    }

    /// The profiles the workload runs, smallest first.
    pub fn profiles(self) -> &'static [&'static str] {
        match self {
            Workload::SuiteTight | Workload::SuiteHard => &SUITE_CIRCUITS,
            Workload::FabricVt => &["synth10k"],
        }
    }

    /// Build one instance of one of the workload's profiles.
    pub fn circuit(self, profile: &str, seed: u64, instance: usize) -> Circuit {
        match self {
            Workload::FabricVt => fabric(profile, seed, instance),
            Workload::SuiteTight | Workload::SuiteHard => suite_circuit(profile, seed, instance),
        }
    }
}

/// Mix a run seed and an instance number into a committed generator
/// seed; instance 0 of seed 0 keeps the committed seed.
pub fn derive_seed(base: u64, seed: u64, instance: usize) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (instance as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A suite profile rebuilt under a derived generator seed.
///
/// # Panics
///
/// Panics if `name` is not a suite profile.
pub fn suite_circuit(name: &str, seed: u64, instance: usize) -> Circuit {
    let profile = suite::PROFILES
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{name} is not a suite profile"));
    suite::build(&suite::CircuitProfile {
        seed: derive_seed(profile.seed, seed, instance),
        ..profile.clone()
    })
}

/// A scaling class rebuilt under a derived generator seed.
///
/// # Panics
///
/// Panics if `name` is not a scaling class.
pub fn fabric(name: &str, seed: u64, instance: usize) -> Circuit {
    let class =
        suite::scaling_class(name).unwrap_or_else(|| panic!("{name} is not a scaling class"));
    builders::synthetic_fabric(
        class.name,
        class.target_gates,
        derive_seed(class.seed, seed, instance),
    )
}

/// One circuit of a workload with its constraint.
#[derive(Debug, Clone)]
pub struct Case {
    /// Index of the circuit's profile in [`Workload::profiles`].
    pub profile: usize,
    /// Which seeded instance of the profile this is.
    pub instance: usize,
    /// The generated netlist.
    pub circuit: Circuit,
    /// The constraint handed to the flow (ps).
    pub tc_ps: f64,
    /// ΣCin at all-minimum sizing (fF): the area baseline.
    pub min_cin_ff: f64,
}

/// Set a workload up: generate every instance of every profile
/// (instance-major) and time each at minimum sizing to fix T0 and the
/// constraint.
///
/// # Errors
///
/// A netlist the timing engine rejects.
pub fn setup(workload: Workload, seed: u64, lib: &Library) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for instance in 0..workload.instances() {
        for (profile, name) in workload.profiles().iter().enumerate() {
            let circuit = workload.circuit(name, seed, instance);
            let min = Sizing::minimum(&circuit, lib);
            let t0_ps = analyze(&circuit, lib, &min)
                .map_err(|e| format!("{name}#{instance}: {e}"))?
                .critical_delay_ps();
            cases.push(Case {
                profile,
                instance,
                tc_ps: workload.tc_factor() * t0_ps,
                min_cin_ff: min.total_cin_ff(),
                circuit,
            });
        }
    }
    Ok(cases)
}
