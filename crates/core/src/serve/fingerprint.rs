//! The configuration fingerprint a journal header pins, so `--recover`
//! refuses a journal written under other arguments before it replays a
//! single chronon.
//!
//! The fingerprint names the dimensions, the policy's full spec, the engine
//! mode and the fault model's descriptor (kind, parameters and seed; for a
//! live prober, its targets and timeout) in clear, and covers the instance,
//! the fault configuration and the compiled churn script each by a CRC-32
//! of its content. The content is fed into the CRC field by field —
//! integers little-endian, `f32` by its bits, lengths before sequences,
//! enum variants and options by a tag byte — and every struct is
//! destructured exhaustively, so a new field fails to compile until the
//! fingerprint covers it.

use crate::engine::{EngineConfig, Mutation, ScriptedMutations};
use crate::fault::{Backoff, FaultConfig};
use crate::model::{Budget, Cei, CeiId, Ei, Instance, ProbeCosts, Profile};
use webmon_streams::Crc32;

/// The fingerprint of a serve session: its instance, policy spec, engine
/// mode, fault configuration, compiled churn script and the descriptor of
/// the fault model it probes through
/// ([`FaultModel::descriptor`](crate::fault::FaultModel::descriptor)).
/// Equal inputs give equal fingerprints, in any process.
pub fn session_fingerprint(
    instance: &Instance,
    policy_spec: &str,
    config: EngineConfig,
    fault_config: &FaultConfig,
    script: &ScriptedMutations,
    executor: &str,
) -> String {
    // Every selector gives the same run, so the selection strategy is
    // left out: a journal recovers under either.
    let EngineConfig {
        preemptive,
        share_probes,
        selection: _,
    } = config;
    format!(
        "v3;horizon={};resources={};ceis={};instance={:08x};policy={policy_spec};\
         preemptive={preemptive};share={share_probes};fault_config={:08x};script={:08x};\
         executor={executor}",
        instance.epoch.len(),
        instance.n_resources,
        instance.ceis.len(),
        crc_of(instance),
        crc_of(fault_config),
        crc_of(script),
    )
}

fn crc_of(value: &(impl Fingerprint + ?Sized)) -> u32 {
    let mut crc = Crc32::new();
    value.feed(&mut crc);
    crc.finish()
}

/// Content a session fingerprint covers, fed into a running CRC. The types
/// whose fields are private to their modules (`Instance`,
/// `ScriptedMutations`) implement it there.
pub(crate) trait Fingerprint {
    /// Feeds every field of `self` into `crc`.
    fn feed(&self, crc: &mut Crc32);
}

impl Fingerprint for bool {
    fn feed(&self, crc: &mut Crc32) {
        crc.update(&[u8::from(*self)]);
    }
}

impl Fingerprint for u16 {
    fn feed(&self, crc: &mut Crc32) {
        crc.update(&self.to_le_bytes());
    }
}

impl Fingerprint for u32 {
    fn feed(&self, crc: &mut Crc32) {
        crc.update(&self.to_le_bytes());
    }
}

impl Fingerprint for usize {
    fn feed(&self, crc: &mut Crc32) {
        crc.update(&(*self as u64).to_le_bytes());
    }
}

impl Fingerprint for f32 {
    fn feed(&self, crc: &mut Crc32) {
        self.to_bits().feed(crc);
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn feed(&self, crc: &mut Crc32) {
        self.len().feed(crc);
        for item in self {
            item.feed(crc);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn feed(&self, crc: &mut Crc32) {
        self.as_slice().feed(crc);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn feed(&self, crc: &mut Crc32) {
        match self {
            None => crc.update(&[0]),
            Some(v) => {
                crc.update(&[1]);
                v.feed(crc);
            }
        }
    }
}

impl Fingerprint for CeiId {
    fn feed(&self, crc: &mut Crc32) {
        self.0.feed(crc);
    }
}

impl Fingerprint for Budget {
    fn feed(&self, crc: &mut Crc32) {
        match self {
            Budget::Uniform(c) => {
                crc.update(&[0]);
                c.feed(crc);
            }
            Budget::PerChronon(v) => {
                crc.update(&[1]);
                v.feed(crc);
            }
        }
    }
}

impl Fingerprint for ProbeCosts {
    fn feed(&self, crc: &mut Crc32) {
        match self {
            ProbeCosts::Uniform => crc.update(&[0]),
            ProbeCosts::PerResource(v) => {
                crc.update(&[1]);
                v.feed(crc);
            }
        }
    }
}

impl Fingerprint for Ei {
    fn feed(&self, crc: &mut Crc32) {
        let Ei {
            resource,
            start,
            end,
        } = self;
        resource.0.feed(crc);
        start.feed(crc);
        end.feed(crc);
    }
}

impl Fingerprint for Cei {
    fn feed(&self, crc: &mut Crc32) {
        let Cei {
            id,
            profile,
            release,
            eis,
            required,
            weight,
        } = self;
        id.feed(crc);
        profile.0.feed(crc);
        release.feed(crc);
        eis.feed(crc);
        required.feed(crc);
        weight.feed(crc);
    }
}

impl Fingerprint for Profile {
    fn feed(&self, crc: &mut Crc32) {
        let Profile { id, ceis, rank } = self;
        id.0.feed(crc);
        ceis.feed(crc);
        rank.feed(crc);
    }
}

impl Fingerprint for Backoff {
    fn feed(&self, crc: &mut Crc32) {
        let Backoff { base, cap } = self;
        base.feed(crc);
        cap.feed(crc);
    }
}

impl Fingerprint for FaultConfig {
    fn feed(&self, crc: &mut Crc32) {
        let FaultConfig {
            failures_cost,
            backoff,
            retry_quota,
        } = self;
        failures_cost.feed(crc);
        backoff.feed(crc);
        retry_quota.feed(crc);
    }
}

impl Fingerprint for Mutation {
    fn feed(&self, crc: &mut Crc32) {
        match self {
            Mutation::Register { cei } => {
                crc.update(&[0]);
                cei.feed(crc);
            }
            Mutation::Cancel { cei } => {
                crc.update(&[1]);
                cei.feed(crc);
            }
            Mutation::SetBudget { budget } => {
                crc.update(&[2]);
                budget.feed(crc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MutationQueue;
    use crate::fault::{FaultModel, GilbertElliott, IidFaults};
    use crate::model::InstanceBuilder;

    /// One session's fingerprint inputs, built from scratch each time.
    struct Session {
        instance: Instance,
        fault_config: FaultConfig,
        queue: MutationQueue,
        faults: Box<dyn FaultModel>,
    }

    impl Session {
        fn new() -> Self {
            let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(2));
            let p = b.profile();
            b.cei(p, &[(0, 0, 4), (1, 2, 6)]);
            b.cei_threshold(p, 2, &[(0, 1, 3), (1, 4, 8), (2, 5, 9)]);
            let mut instance = b.build();
            instance.costs = ProbeCosts::per_resource(vec![1, 2, 1]);
            let mut queue = MutationQueue::new();
            queue.register(3, CeiId(1)).set_budget(5, 1);
            Session {
                instance,
                fault_config: FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
                queue,
                faults: Box::new(IidFaults::new(0.3, 7)),
            }
        }

        fn fingerprint(&self) -> String {
            let horizon = self.instance.epoch.len();
            let script = ScriptedMutations::compile(&self.queue, horizon, self.instance.ceis.len());
            session_fingerprint(
                &self.instance,
                "mrsf",
                EngineConfig::preemptive(),
                &self.fault_config,
                &script,
                &self.faults.descriptor(),
            )
        }
    }

    #[test]
    fn one_changed_item_changes_the_fingerprint() {
        let base = Session::new().fingerprint();
        assert!(base.starts_with("v3;"), "{base}");
        assert_eq!(
            base,
            Session::new().fingerprint(),
            "same inputs, same fingerprint"
        );
        type Change = (&'static str, fn(&mut Session));
        let rows: [Change; 9] = [
            ("an EI bound", |s| s.instance.ceis[0].eis[1].end = 7),
            ("a CEI weight", |s| s.instance.ceis[1].weight = 2.5),
            ("required", |s| s.instance.ceis[1].required = 3),
            ("the budget", |s| s.instance.budget = Budget::Uniform(3)),
            ("one probe cost", |s| {
                s.instance.costs = ProbeCosts::per_resource(vec![1, 3, 1]);
            }),
            ("one scripted mutation", |s| {
                let mut queue = MutationQueue::new();
                queue.register(3, CeiId(1)).set_budget(5, 2);
                s.queue = queue;
            }),
            ("the fault seed", |s| {
                s.faults = Box::new(IidFaults::new(0.3, 8));
            }),
            ("the fault rate", |s| {
                s.faults = Box::new(IidFaults::new(0.4, 7));
            }),
            ("the fault model", |s| {
                s.faults = Box::new(GilbertElliott::new(0.3, 0.5, 7, 3));
            }),
        ];
        for (what, change) in rows {
            let mut session = Session::new();
            change(&mut session);
            assert_ne!(session.fingerprint(), base, "{what}");
        }
    }
}
