//! The closed set of scheduling policies the experiment matrix compares.

use o2_baseline::{StaticPartition, ThreadClustering, ThreadScheduler};
use o2_core::{CoreTime, CoreTimeConfig};
use o2_runtime::SchedPolicy;
use o2_sim::MachineConfig;

/// Which scheduling policy to construct for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// CoreTime with the default configuration ("With CoreTime").
    CoreTime,
    /// The traditional thread scheduler ("Without CoreTime").
    ThreadScheduler,
    /// Sharing-aware thread clustering (Tam et al.).
    ThreadClustering,
    /// Static round-robin object partitioning.
    StaticPartition,
}

impl PolicyKind {
    /// Every kind, in comparison order (CoreTime first, baselines after).
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::CoreTime,
        PolicyKind::ThreadScheduler,
        PolicyKind::ThreadClustering,
        PolicyKind::StaticPartition,
    ];

    /// Human-readable label used in series names (matches the paper's
    /// figure legends where applicable).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::CoreTime => "With CoreTime",
            PolicyKind::ThreadScheduler => "Without CoreTime",
            PolicyKind::ThreadClustering => "Thread clustering",
            PolicyKind::StaticPartition => "Static partition",
        }
    }

    /// Builds the policy for a given machine.
    pub fn build(&self, machine: &MachineConfig) -> Box<dyn SchedPolicy + Send> {
        match self {
            PolicyKind::CoreTime => CoreTime::policy(machine),
            PolicyKind::ThreadScheduler => Box::new(ThreadScheduler::new()),
            PolicyKind::ThreadClustering => {
                Box::new(ThreadClustering::new(machine.chips, machine.cores_per_chip))
            }
            PolicyKind::StaticPartition => Box::new(StaticPartition::new(machine.total_cores())),
        }
    }

    /// Builds a CoreTime policy with an explicit configuration (running in
    /// place); other kinds ignore the configuration.
    pub fn build_with_coretime_config(
        &self,
        machine: &MachineConfig,
        cfg: CoreTimeConfig,
    ) -> Box<dyn SchedPolicy + Send> {
        match self {
            PolicyKind::CoreTime => CoreTime::policy_with(machine, cfg),
            other => other.build(machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_papers_legends() {
        assert_eq!(PolicyKind::CoreTime.label(), "With CoreTime");
        assert_eq!(PolicyKind::ThreadScheduler.label(), "Without CoreTime");
    }

    #[test]
    fn policies_can_be_built_for_the_default_machine() {
        let machine = MachineConfig::amd16();
        for kind in PolicyKind::ALL {
            let p = kind.build(&machine);
            assert!(!p.name().is_empty());
        }
    }
}
