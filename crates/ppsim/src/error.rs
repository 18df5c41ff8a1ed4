//! Error type for the simulation substrate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or running simulations.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The population must contain at least two agents for any interaction to
    /// be possible.
    PopulationTooSmall {
        /// The offending population size.
        n: usize,
    },
    /// The initial configuration's length does not match the protocol's
    /// declared population size.
    ConfigurationSizeMismatch {
        /// Size declared by the protocol.
        expected: usize,
        /// Size of the provided configuration.
        actual: usize,
    },
    /// A run exhausted its interaction budget before reaching its goal.
    BudgetExhausted {
        /// The interaction budget that was exhausted.
        budget: u64,
    },
    /// The scheduler's pair measure depends on agent identities (e.g. a
    /// graph-restricted topology), which the count-based engines erase:
    /// sampling it there would silently draw from the wrong law, so the
    /// engine rejects it. Route identity-based schedulers to the exact
    /// engine.
    SchedulerNeedsIdentities {
        /// The scheduler strategy that was rejected (its label).
        scheduler: String,
        /// The engine that rejected it.
        engine: &'static str,
    },
    /// Every pair rate of a weighted scheduler is zero: no interaction can
    /// ever be scheduled.
    ZeroRateScheduler,
    /// An [`crate::EnumerableProtocol`] mapped a state to an index outside
    /// its enumerated space `0..num_states`.
    StateIndexOutOfRange {
        /// The index `state_index` returned.
        index: usize,
        /// The size of the enumerated space.
        num_states: usize,
    },
    /// An [`crate::EnumerableProtocol`] declared
    /// `interaction_partners` for some state indices but not for all.
    PartialInteractionPartners {
        /// The first index whose declaration disagrees with index 0's.
        index: usize,
    },
    /// A [`crate::RunSpec`] was built without an initial configuration:
    /// none of `init`, `init_with`, or `scenario` was called, so there is
    /// nothing to run the trials from.
    MissingInitialConfiguration,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PopulationTooSmall { n } => {
                write!(f, "population size {n} is too small; need at least 2 agents")
            }
            SimError::ConfigurationSizeMismatch { expected, actual } => write!(
                f,
                "initial configuration has {actual} agents but the protocol declares {expected}"
            ),
            SimError::BudgetExhausted { budget } => {
                write!(f, "interaction budget of {budget} exhausted before the goal was reached")
            }
            SimError::SchedulerNeedsIdentities { scheduler, engine } => write!(
                f,
                "the {scheduler} scheduler needs agent identities, which the {engine} engine \
                 erases; use the exact engine"
            ),
            SimError::ZeroRateScheduler => {
                write!(f, "every pair rate of the weighted scheduler is zero")
            }
            SimError::StateIndexOutOfRange { index, num_states } => {
                write!(f, "state_index returned {index} for a space of {num_states} states")
            }
            SimError::PartialInteractionPartners { index } => write!(
                f,
                "interaction_partners must be Some for every index or none; index {index} \
                 disagrees with index 0"
            ),
            SimError::MissingInitialConfiguration => write!(
                f,
                "the run spec has no initial configuration; call init, init_with, or scenario \
                 before running"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = SimError::PopulationTooSmall { n: 1 };
        assert!(e.to_string().contains("population size 1"));
        let e = SimError::ConfigurationSizeMismatch { expected: 5, actual: 3 };
        assert!(e.to_string().contains("3 agents"));
        assert!(e.to_string().contains("declares 5"));
        let e = SimError::BudgetExhausted { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e = SimError::SchedulerNeedsIdentities { scheduler: "ring".into(), engine: "batched" };
        assert!(e.to_string().contains("ring"));
        assert!(e.to_string().contains("batched"));
        assert!(SimError::ZeroRateScheduler.to_string().contains("zero"));
        let e = SimError::StateIndexOutOfRange { index: 7, num_states: 2 };
        assert!(e.to_string().contains("returned 7 for a space of 2 states"));
        let e = SimError::PartialInteractionPartners { index: 3 };
        assert!(e.to_string().contains("index 3"));
        let e = SimError::MissingInitialConfiguration;
        assert!(e.to_string().contains("no initial configuration"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
