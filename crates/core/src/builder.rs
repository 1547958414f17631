//! A small facade for constructing CoreTime policies.

use o2_runtime::SchedPolicy;
use o2_sim::MachineConfig;

use crate::config::CoreTimeConfig;
use crate::policy::O2Policy;

/// Entry point for applications: builds CoreTime scheduling policies that
/// plug into the `o2-runtime` engine.
///
/// # Examples
///
/// ```
/// use o2_core::CoreTime;
/// use o2_runtime::{Engine, RuntimeConfig};
/// use o2_sim::{Machine, MachineConfig};
///
/// let machine_cfg = MachineConfig::amd16();
/// let machine = Machine::new(machine_cfg.clone());
/// let engine = Engine::new(machine, CoreTime::policy(&machine_cfg), RuntimeConfig::default());
/// assert_eq!(engine.policy().name(), "coretime");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTime;

impl CoreTime {
    /// A CoreTime policy with the default configuration.
    pub fn policy(machine: &MachineConfig) -> Box<dyn SchedPolicy + Send> {
        Box::new(O2Policy::with_defaults(machine))
    }

    /// A CoreTime policy with an explicit configuration.
    pub fn policy_with(
        machine: &MachineConfig,
        cfg: CoreTimeConfig,
    ) -> Box<dyn SchedPolicy + Send> {
        Box::new(O2Policy::new(machine, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_coretime_policies() {
        let cfg = MachineConfig::amd16();
        assert_eq!(CoreTime::policy(&cfg).name(), "coretime");
        assert_eq!(
            CoreTime::policy_with(&cfg, CoreTimeConfig::default()).name(),
            "coretime"
        );
    }
}
