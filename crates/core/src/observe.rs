//! Run observation utilities.
//!
//! [`WindowRecorder`] captures the per-epoch compute/wait windows the
//! engine reports — the raw material for offline analysis of dynamic
//! behaviour (which rank was the bottleneck when, how much the balance
//! moved between iterations). [`ProgressModel`] turns the static plan's
//! per-epoch work expectation into an online progress metric: instructions
//! retired so far vs. where the plan says each rank should be.
//! [`crate::remap::Composite`] runs a recorder beside a policy.

use mtb_mpisim::engine::{Observer, RankWindow};
use mtb_oskernel::Machine;
use mtb_trace::stats::Summary;
use mtb_trace::Cycles;

/// The static plan's expectation of per-rank progress, used by the
/// two-level controller as a reference trajectory.
///
/// `expected[e][r]` is the cumulative compute instructions rank *r*
/// should have retired once epoch *e*'s barrier releases. The table is a
/// pure function of the programs (via `mtb-verify`'s abstract
/// interpretation), so a controller driven by it stays deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressModel {
    expected: Vec<Vec<f64>>,
}

impl ProgressModel {
    /// Build from per-epoch (not cumulative) expected work:
    /// `per_epoch[e][r]` = instructions rank `r` computes in epoch `e`.
    /// Returns `None` when the table is empty or ragged.
    pub fn from_expectations(per_epoch: &[Vec<u64>]) -> Option<ProgressModel> {
        let n = per_epoch.first()?.len();
        if n == 0 || per_epoch.iter().any(|row| row.len() != n) {
            return None;
        }
        let mut cum = vec![0.0f64; n];
        let mut expected = Vec::with_capacity(per_epoch.len());
        for row in per_epoch {
            for (c, &w) in cum.iter_mut().zip(row) {
                *c += w as f64;
            }
            expected.push(cum.clone());
        }
        Some(ProgressModel { expected })
    }

    /// Derive the expectation table from the programs themselves via the
    /// static analyzer's per-phase profiles. `None` when the ranks'
    /// sync structures disagree (no common epoch grid exists).
    pub fn from_programs(programs: &[mtb_mpisim::Program]) -> Option<ProgressModel> {
        let profiles = mtb_verify::infer_profiles(programs);
        let epochs = profiles.first()?.phases.len();
        if epochs == 0 || profiles.iter().any(|p| p.phases.len() != epochs) {
            return None;
        }
        let per_epoch: Vec<Vec<u64>> = (0..epochs)
            .map(|e| profiles.iter().map(|p| p.phases[e].work).collect())
            .collect();
        ProgressModel::from_expectations(&per_epoch)
    }

    /// Number of sync epochs the plan covers.
    pub fn epochs(&self) -> usize {
        self.expected.len()
    }

    /// Total expected work per rank over the whole plan (the last
    /// cumulative row) — what the controller's plan-primed start pairs
    /// and prioritizes by.
    pub fn totals(&self) -> Vec<f64> {
        self.expected.last().cloned().unwrap_or_default()
    }

    /// Expected per-rank work in the `len` epochs following `epoch`'s
    /// barrier, clamped to the plan horizon (all zeros once the plan is
    /// exhausted). This is the controller's feedforward signal: the plan
    /// knows each iteration's load exactly, so decisions taken from it
    /// are immune to the window-to-window noise that makes purely
    /// reactive control chase its own tail on moving-bottleneck apps.
    pub fn upcoming(&self, epoch: usize, len: usize) -> Vec<f64> {
        let last = self.expected.len() - 1;
        let from = &self.expected[epoch.min(last)];
        let to = &self.expected[(epoch + len.max(1)).min(last)];
        from.iter()
            .zip(to)
            .map(|(&f, &t)| (t - f).max(0.0))
            .collect()
    }

    /// Relative progress deficit per rank at `epoch`, given cumulative
    /// retired instruction counts: 1.0 = advancing exactly at the fleet's
    /// mean pace relative to plan, above 1.0 = behind plan (deserves
    /// decode slots), below 1.0 = ahead. Epochs past the plan's horizon
    /// clamp to the last row; ranks the plan expects to be idle report
    /// 1.0. Deficits are clamped to `[0.25, 4.0]` so a cold counter can
    /// never swing a decision by more than the strong-imbalance tier.
    pub fn deficits(&self, epoch: usize, retired: &[u64]) -> Vec<f64> {
        let row = &self.expected[epoch.min(self.expected.len() - 1)];
        let pace: Vec<Option<f64>> = retired
            .iter()
            .zip(row)
            .map(|(&r, &e)| (e > 0.0).then(|| (r as f64 + 1.0) / e))
            .collect();
        let known: Vec<f64> = pace.iter().flatten().copied().collect();
        if known.is_empty() {
            return vec![1.0; retired.len()];
        }
        let mean = known.iter().sum::<f64>() / known.len() as f64;
        pace.iter()
            .map(|p| match p {
                Some(p) if *p > 0.0 => (mean / p).clamp(0.25, 4.0),
                _ => 1.0,
            })
            .collect()
    }
}

/// Per-rank time-to-barrier estimates for the window just closed, read
/// off the comm timeline: the engine reports how long each rank computed
/// and how long it then waited, so the rank with the largest compute (and
/// ~zero sync) is the one that released the barrier — every other rank's
/// `sync` cycles measure how much earlier it arrived. Returns
/// `(critical_rank, slack_by_rank)`; `None` for an empty window set.
pub fn barrier_slack(windows: &[RankWindow]) -> Option<(usize, Vec<Cycles>)> {
    let critical = windows.iter().max_by_key(|w| w.compute)?.rank;
    let mut slack = vec![0; windows.iter().map(|w| w.rank + 1).max().unwrap_or(0)];
    for w in windows {
        slack[w.rank] = w.sync;
    }
    Some((critical, slack))
}

/// Records every epoch's windows (and the priorities in force).
#[derive(Debug, Default)]
pub struct WindowRecorder {
    epochs: Vec<Vec<RankWindow>>,
    priorities: Vec<Vec<u8>>,
}

impl WindowRecorder {
    /// An empty recorder.
    pub fn new() -> WindowRecorder {
        WindowRecorder::default()
    }

    /// The recorded epochs, in order.
    pub fn epochs(&self) -> &[Vec<RankWindow>] {
        &self.epochs
    }

    /// The hardware priorities (per rank) observed at each epoch.
    pub fn priorities(&self) -> &[Vec<u8>] {
        &self.priorities
    }

    /// Which rank computed longest in each epoch.
    pub fn bottleneck_history(&self) -> Vec<usize> {
        self.epochs
            .iter()
            .filter_map(|w| w.iter().max_by_key(|x| x.compute).map(|x| x.rank))
            .collect()
    }

    /// Distribution of one rank's per-epoch compute times.
    pub fn compute_summary(&self, rank: usize) -> Option<Summary> {
        let samples: Vec<Cycles> = self
            .epochs
            .iter()
            .flat_map(|w| w.iter().filter(|x| x.rank == rank).map(|x| x.compute))
            .collect();
        Summary::of(&samples)
    }

    /// How often the bottleneck changed identity between consecutive
    /// epochs — the "dynamism" the paper says distinguishes SIESTA from
    /// BT-MZ.
    pub fn bottleneck_moves(&self) -> usize {
        let h = self.bottleneck_history();
        h.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

impl Observer for WindowRecorder {
    fn on_epoch(&mut self, _epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        self.epochs.push(windows.to_vec());
        self.priorities.push(
            (0..windows.len())
                .map(|r| machine.pcb(r).map_or(4, |p| p.hmt_priority.value()))
                .collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{execute_with, StaticRun};
    use mtb_workloads::metbench::MetBenchConfig;
    use mtb_workloads::siesta::SiestaConfig;

    #[test]
    fn recorder_sees_every_epoch() {
        let cfg = MetBenchConfig {
            iterations: 12,
            scale: 1e-3,
            ..Default::default()
        };
        let progs = cfg.programs();
        let mut rec = WindowRecorder::new();
        let _ = execute_with(StaticRun::new(&progs, cfg.placement()), &mut rec).unwrap();
        assert_eq!(rec.epochs().len(), 12, "one epoch per barrier");
        assert_eq!(rec.priorities().len(), 12);
        assert!(rec.priorities().iter().all(|p| p == &vec![4, 4, 4, 4]));
    }

    #[test]
    fn metbench_bottleneck_is_static_siestas_moves() {
        let met = MetBenchConfig {
            iterations: 15,
            scale: 1e-3,
            ..Default::default()
        };
        let mut rec_met = WindowRecorder::new();
        let _ = execute_with(
            StaticRun::new(&met.programs(), met.placement()),
            &mut rec_met,
        )
        .unwrap();

        let sie = SiestaConfig {
            iterations: 15,
            scale: 1e-3,
            ..Default::default()
        };
        let mut rec_sie = WindowRecorder::new();
        let _ = execute_with(
            StaticRun::new(&sie.programs(), sie.placement_reference()),
            &mut rec_sie,
        )
        .unwrap();

        // The paper's observation, measured: BT-MZ/MetBench keep one
        // bottleneck; SIESTA's moves between iterations.
        assert!(
            rec_sie.bottleneck_moves() > rec_met.bottleneck_moves(),
            "SIESTA must be more dynamic: {} vs {}",
            rec_sie.bottleneck_moves(),
            rec_met.bottleneck_moves()
        );
    }

    #[test]
    fn compute_summary_reflects_load_shares() {
        let cfg = MetBenchConfig {
            iterations: 10,
            scale: 1e-3,
            ..Default::default()
        };
        let mut rec = WindowRecorder::new();
        let _ = execute_with(StaticRun::new(&cfg.programs(), cfg.placement()), &mut rec).unwrap();
        let light = rec.compute_summary(0).unwrap();
        let heavy = rec.compute_summary(1).unwrap();
        assert!(
            heavy.mean > 3.0 * light.mean,
            "{} vs {}",
            heavy.mean,
            light.mean
        );
        assert!(rec.compute_summary(9).is_none(), "no such rank");
    }

    #[test]
    fn progress_model_accumulates_and_rejects_ragged_tables() {
        let m = ProgressModel::from_expectations(&[vec![10, 30], vec![10, 30]]).unwrap();
        assert_eq!(m.epochs(), 2);
        // Rank 1 retired only a third of its plan while rank 0 is on
        // pace: rank 1 is behind (deficit > 1), rank 0 ahead of the mean.
        let d = m.deficits(1, &[20, 20]);
        assert!(d[1] > 1.0 && d[0] < 1.0, "{d:?}");
        // Past the horizon the last row keeps applying.
        assert_eq!(m.deficits(7, &[20, 20]), d);
        assert!(ProgressModel::from_expectations(&[]).is_none());
        assert!(ProgressModel::from_expectations(&[vec![1], vec![1, 2]]).is_none());
    }

    #[test]
    fn progress_model_deficits_are_clamped_and_idle_ranks_neutral() {
        let m = ProgressModel::from_expectations(&[vec![1_000, 0]]).unwrap();
        let d = m.deficits(0, &[1, 0]);
        assert_eq!(d[1], 1.0, "plan expects rank 1 idle: neutral weight");
        assert!(d[0] <= 4.0, "deficit clamp: {d:?}");
    }

    #[test]
    fn progress_model_derives_from_metbench_programs() {
        let cfg = MetBenchConfig {
            iterations: 6,
            scale: 1e-3,
            ..Default::default()
        };
        let m = ProgressModel::from_programs(&cfg.programs()).unwrap();
        // One row per barrier plus the tail phase after the last one.
        assert_eq!(m.epochs(), 7);
        // Equal retired counts against unequal expectations: the heavy
        // rank (1) has covered a smaller fraction of its plan, so it
        // carries the larger deficit.
        let d = m.deficits(0, &[100, 100, 100, 100]);
        assert!(d[1] > d[0], "heavy rank with equal retired lags: {d:?}");
    }

    #[test]
    fn barrier_slack_names_the_critical_rank() {
        let windows = vec![
            RankWindow {
                rank: 0,
                compute: 50,
                sync: 150,
            },
            RankWindow {
                rank: 1,
                compute: 200,
                sync: 0,
            },
        ];
        let (critical, slack) = barrier_slack(&windows).unwrap();
        assert_eq!(critical, 1);
        assert_eq!(slack, vec![150, 0]);
        assert!(barrier_slack(&[]).is_none());
    }
}
