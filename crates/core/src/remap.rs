//! Cross-core rank remapping and observer composition.
//!
//! [`realize_placement`] carries out Section VII-B's mapping argument
//! (pair the heaviest rank with the lightest) at run time: it migrates
//! and swaps ranks until a desired placement holds. The two-level
//! controller's level 1 ([`TwoLevelController`](crate::dynamic::TwoLevelController))
//! calls it when intra-core priorities saturate. [`Composite`] runs
//! several observers on every epoch, e.g. a policy and a recorder.

use mtb_mpisim::engine::{Observer, RankWindow};
use mtb_oskernel::{CtxAddr, Machine};

/// Realize a desired placement with swaps/migrations. Iterates: find a
/// rank sitting on the wrong context and swap it with the rank (if any)
/// occupying its desired seat, or migrate if the seat is free. Returns
/// the number of migrations/swaps performed.
pub fn realize_placement(machine: &mut Machine, desired: &[CtxAddr]) -> usize {
    let n = desired.len();
    let mut moves = 0;
    for _ in 0..2 * n {
        let Some(rank) = (0..n).find(|&r| machine.pcb(r).map(|p| p.affinity) != Some(desired[r]))
        else {
            break;
        };
        let target = desired[rank];
        let occupant =
            (0..n).find(|&o| o != rank && machine.pcb(o).map(|p| p.affinity) == Some(target));
        let ok = match occupant {
            Some(o) => machine.swap(rank, o).is_ok(),
            None => machine.migrate(rank, target).is_ok(),
        };
        if !ok {
            break;
        }
        moves += 1;
    }
    moves
}

/// Run several observers in sequence on every epoch (e.g. a priority
/// policy, then a window recorder).
pub struct Composite<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Composite<'a> {
    /// Compose observers; they fire in the given order.
    pub fn new(observers: Vec<&'a mut dyn Observer>) -> Composite<'a> {
        Composite { observers }
    }
}

impl Observer for Composite<'_> {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        for o in &mut self.observers {
            o.on_epoch(epoch, windows, machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{execute_with, StaticRun};

    /// Logs `(epoch, id)` into a shared journal each time it fires.
    struct Journal<'a> {
        id: usize,
        log: &'a std::cell::RefCell<Vec<(usize, usize)>>,
    }

    impl Observer for Journal<'_> {
        fn on_epoch(&mut self, epoch: usize, _: &[RankWindow], _: &mut Machine) {
            self.log.borrow_mut().push((epoch, self.id));
        }
    }

    #[test]
    fn composite_fires_observers_in_order_every_epoch() {
        let progs = mtb_workloads::metbench::MetBenchConfig::tiny().programs();
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        let log = std::cell::RefCell::new(Vec::new());
        let mut first = Journal { id: 0, log: &log };
        let mut second = Journal { id: 1, log: &log };
        let mut combo = Composite::new(vec![&mut first, &mut second]);
        execute_with(StaticRun::new(&progs, placement), &mut combo).unwrap();

        let log = log.into_inner();
        assert!(!log.is_empty() && log.len() % 2 == 0, "{log:?}");
        for fired in log.chunks(2) {
            assert_eq!(fired[0].0, fired[1].0, "both fire on each epoch: {log:?}");
            assert_eq!(
                (fired[0].1, fired[1].1),
                (0, 1),
                "in the given order: {log:?}"
            );
        }
        let epochs: Vec<usize> = log.iter().step_by(2).map(|&(e, _)| e).collect();
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
    }
}
