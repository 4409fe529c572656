//! Input generation: update trace, monitoring instance and churn script,
//! all derived from the `--seed` argument.
//!
//! The fork discipline is `webmon run`'s (`SimRng::new(seed)` →
//! `("repetition", rep)` → `"trace"` / `"workload"`), so repetition `rep`
//! at seed 1234 is exactly the instance `webmon run --seed 1234` builds as
//! its repetition `rep` for the same dimensions.

use std::time::Instant;
use webmon_core::engine::{MutationQueue, ScriptedMutations};
use webmon_core::model::{Budget, Instance};
use webmon_sim::{ChurnSpec, TraceSpec};
use webmon_streams::{NoisyTrace, SimRng};
use webmon_workload::{ChurnConfig, EiLength, RankSpec, WorkloadConfig};

/// Resources monitored (`webmon run --resources` default).
const RESOURCES: u32 = 200;

/// The dimensions of one generated instance; every other generator knob
/// is a `webmon run` default (rank up to 5, α 0.3, ω ≤ 10).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub profiles: u32,
    pub horizon: u32,
    pub budget: u32,
    /// Poisson update intensity per resource per epoch.
    pub lambda: f64,
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub trace_s: f64,
    pub generate_s: f64,
    pub script_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.trace_s + self.generate_s + self.script_s
    }

    /// The stage times at the reference host speed.
    pub fn scaled(self, f: f64) -> Self {
        SetupTimes {
            trace_s: self.trace_s * f,
            generate_s: self.generate_s * f,
            script_s: self.script_s * f,
        }
    }
}

pub struct Inputs {
    pub instance: Instance,
    /// The mutation script as the engine consumes it.
    pub script: ScriptedMutations,
    /// The same script as declared, for the invariant checker.
    pub queue: MutationQueue,
    pub times: SetupTimes,
}

/// A sub-seed for one input stream (faults, churn, client schedule), so
/// every input follows from the one `--seed`.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    SimRng::new(seed).fork(label).below(u64::MAX)
}

/// Generates the trace and instance of repetition `rep` for `shape` at
/// `seed`, then builds the mutation queue with `script` and compiles it for
/// the engine.
pub fn generate(
    shape: Shape,
    seed: u64,
    rep: u64,
    script: impl FnOnce(&Instance) -> MutationQueue,
) -> Inputs {
    let rep = SimRng::new(seed).fork_indexed("repetition", rep);
    let t0 = Instant::now();
    let trace = TraceSpec::Poisson {
        lambda: shape.lambda,
    }
    .generate(RESOURCES, shape.horizon, &rep.fork("trace"));
    let t1 = Instant::now();
    let config = WorkloadConfig {
        n_profiles: shape.profiles,
        rank: RankSpec::UpTo { k: 5, beta: 0.0 },
        resource_alpha: 0.3,
        length: EiLength::Overwrite { max_len: Some(10) },
        distinct_resources: true,
        max_ceis: None,
        no_intra_resource_overlap: false,
    };
    let instance = webmon_workload::generate(
        &config,
        &NoisyTrace::exact(&trace),
        Budget::Uniform(shape.budget),
        &rep.fork("workload"),
    )
    .instance;
    drop(trace);
    let t2 = Instant::now();
    let queue = script(&instance);
    let compiled = ScriptedMutations::compile(&queue, instance.epoch.len(), instance.ceis.len());
    let t3 = Instant::now();
    Inputs {
        instance,
        script: compiled,
        queue,
        times: SetupTimes {
            trace_s: (t1 - t0).as_secs_f64(),
            generate_s: (t2 - t1).as_secs_f64(),
            script_s: (t3 - t2).as_secs_f64(),
        },
    }
}

/// The churn overlay `webmon run --churn-*` builds for repetition `rep`,
/// seeded from `seed`.
pub fn churn_script(
    config: ChurnConfig,
    seed: u64,
    rep: u64,
) -> impl FnOnce(&Instance) -> MutationQueue {
    move |instance| {
        ChurnSpec {
            config,
            seed: derive_seed(seed, "churn"),
        }
        .build(rep, instance)
    }
}
