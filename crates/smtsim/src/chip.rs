//! The cores of the simulated machine.
//!
//! A POWER5 chip packages two SMT cores behind a shared L2 (the paper's
//! OpenPower 710 has one such chip, giving four hardware contexts);
//! larger configurations model a board of such chips, or a cluster node
//! of single-core chips. This module builds those cores, at either
//! fidelity, for the machine layer: [`build_cores_grouped`] gives every
//! `cores_per_l2` consecutive cycle-level cores one [`SharedCache`].
//! The machine (`oskernel::Machine`) groups cores into conflict domains
//! by [`CoreModel::share_group`] and steps the domains as shards; the
//! contract that keeps a shared L2 exact under that stepping is stated
//! on [`SharedCache`].

use std::sync::{Arc, Mutex};

use crate::cache::Cache;
use crate::core::{CoreConfig, SharedCache, SmtCore};
use crate::model::CoreModel;
use crate::perfmodel::{MesoConfig, MesoCore};

/// Core-model selection with full configuration.
#[derive(Debug, Clone)]
pub enum Fidelity {
    /// The fast calibrated mesoscale model.
    Meso(MesoConfig),
    /// The cycle-level model (L2 shared per 2-core chip).
    Cycle(CoreConfig),
}

impl Default for Fidelity {
    fn default() -> Self {
        Fidelity::Meso(MesoConfig::default())
    }
}

/// Build a set of boxed cores for the machine layer at default
/// configurations: [`SmtCore`] (slow, mechanistic) when
/// `cycle_accurate`, else [`MesoCore`] (fast, calibrated). Cycle-level
/// cores share an L2 per 2-core chip (the POWER5 package); use
/// [`build_cores_grouped`] to configure the model or the domain size.
pub fn build_cores(n_cores: usize, cycle_accurate: bool) -> Vec<Box<dyn CoreModel>> {
    let f = if cycle_accurate {
        Fidelity::Cycle(CoreConfig::default())
    } else {
        Fidelity::Meso(MesoConfig::default())
    };
    build_cores_grouped(n_cores, &f, 2)
}

/// Build `n_cores` cores of `fidelity` in which every `cores_per_l2`
/// consecutive cycle-level cores share one L2 (a cluster node of
/// single-core chips uses 1; the POWER5 package uses 2). Mesoscale cores
/// carry no shared state and ignore the grouping.
pub fn build_cores_grouped(
    n_cores: usize,
    fidelity: &Fidelity,
    cores_per_l2: usize,
) -> Vec<Box<dyn CoreModel>> {
    match fidelity {
        Fidelity::Cycle(cfg) => {
            let group = cores_per_l2.max(1);
            let mut l2: Option<SharedCache> = None;
            (0..n_cores)
                .map(|i| {
                    if i % group == 0 {
                        l2 = Some(Arc::new(Mutex::new(Cache::new(cfg.l2))));
                    }
                    let l2 = l2.as_ref().expect("domain cache exists");
                    Box::new(SmtCore::with_l2(cfg.clone(), i as u8, Arc::clone(l2)))
                        as Box<dyn CoreModel>
                })
                .collect()
        }
        Fidelity::Meso(cfg) => (0..n_cores)
            .map(|_| Box::new(MesoCore::new(*cfg)) as Box<dyn CoreModel>)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::StreamSpec;
    use crate::model::{ThreadId, Workload};

    #[test]
    fn build_cores_both_fidelities() {
        let fast = build_cores(2, false);
        assert_eq!(fast.len(), 2);
        let slow = build_cores(2, true);
        assert_eq!(slow.len(), 2);
        for mut core in fast.into_iter().chain(slow) {
            core.assign(
                ThreadId::A,
                Workload::from_spec("w", StreamSpec::balanced(3)),
            );
            let [a, _] = core.advance(2_000);
            assert!(a > 0, "every fidelity must make progress");
        }
    }

    #[test]
    fn grouped_cycle_cores_share_l2_per_domain() {
        let f = Fidelity::Cycle(CoreConfig::default());
        let cores = build_cores_grouped(8, &f, 2);
        let groups: Vec<Option<usize>> = cores.iter().map(|c| c.share_group()).collect();
        // Pairs share, distinct pairs do not.
        for i in (0..8).step_by(2) {
            assert_eq!(groups[i], groups[i + 1], "cores {i},{} pair up", i + 1);
        }
        let distinct: std::collections::BTreeSet<_> = groups.iter().flatten().collect();
        assert_eq!(distinct.len(), 4, "8 cores form 4 L2 domains");
    }
}
