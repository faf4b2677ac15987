//! ABL-1: mesoscale-vs-cycle-model fidelity.
//!
//! The application experiments (Tables IV-VI) run on the mesoscale
//! throughput model; this binary quantifies how well it tracks the
//! cycle-level core across workload mixes and priority pairs — per-thread
//! IPC from both models side by side, with the relative error. The meso
//! column is `pairmodel::pair_rates`, the rates the predictor, the lints
//! and the controller evaluate.

use mtb_smtsim::calibrate::calibrated_workload;
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::pairmodel::pair_rates;
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};
use mtb_trace::Table;

const WARMUP: u64 = 400_000;
const MEASURE: u64 = 200_000;

fn prio(p: u8) -> HwPriority {
    HwPriority::new(p).unwrap()
}

fn cycle_ipcs(wa: &Workload, wb: &Workload, pa: u8, pb: u8) -> [f64; 2] {
    let mut core = SmtCore::new(CoreConfig::default());
    core.assign(ThreadId::A, wa.clone());
    core.assign(ThreadId::B, wb.clone());
    core.set_priority(ThreadId::A, prio(pa));
    core.set_priority(ThreadId::B, prio(pb));
    core.advance(WARMUP);
    let [a, b] = core.advance(MEASURE);
    [a as f64 / MEASURE as f64, b as f64 / MEASURE as f64]
}

fn main() {
    println!("ABL-1 — mesoscale vs cycle-level core model fidelity");
    println!("(per-thread IPC, {MEASURE} measured cycles after {WARMUP} warmup)\n");

    // Workload pairs use *derived* profiles (StreamSpec::profile) so both
    // models consume exactly the same description.
    let pairs: Vec<(&str, Workload, Workload)> = vec![
        (
            "balanced+balanced",
            Workload::from_spec("a", StreamSpec::balanced(1)),
            Workload::from_spec("b", StreamSpec::balanced(2)),
        ),
        (
            "frontend+frontend",
            Workload::from_spec("a", StreamSpec::frontend_bound(1)),
            Workload::from_spec("b", StreamSpec::frontend_bound(2)),
        ),
        (
            "fpu+frontend",
            Workload::from_spec("a", StreamSpec::fpu_bound(1)),
            Workload::from_spec("b", StreamSpec::frontend_bound(2)),
        ),
        (
            "l2+balanced",
            Workload::from_spec("a", StreamSpec::l2_bound(1)),
            Workload::from_spec("b", StreamSpec::balanced(2)),
        ),
    ];

    let calibrated: Vec<(String, Workload, Workload)> = pairs
        .iter()
        .map(|(label, wa, wb)| {
            (
                format!("{label} (calibrated)"),
                calibrated_workload(wa.name.clone(), wa.stream),
                calibrated_workload(wb.name.clone(), wb.stream),
            )
        })
        .collect();
    let all: Vec<(String, Workload, Workload)> = pairs
        .iter()
        .map(|(l, a, b)| (l.to_string(), a.clone(), b.clone()))
        .chain(calibrated)
        .collect();

    let mut t = Table::new(&[
        "pair", "prios", "cycle A", "meso A", "err A", "cycle B", "meso B", "err B",
    ]);
    let mut worst: f64 = 0.0;
    let mut sum_err = 0.0;
    let mut n = 0u32;
    let mut paper_sum = 0.0;
    let mut paper_n = 0u32;
    for (label, wa, wb) in &all {
        for &(pa, pb) in &[(4u8, 4u8), (5, 4), (6, 4), (6, 2), (4, 1), (7, 0)] {
            let cyc = cycle_ipcs(wa, wb, pa, pb);
            let meso = pair_rates(&wa.profile, &wb.profile, prio(pa), prio(pb));
            let err = |c: f64, m: f64| {
                if c < 0.05 && m < 0.05 {
                    0.0
                } else {
                    (m - c).abs() / c.max(0.05)
                }
            };
            let (ea, eb) = (err(cyc[0], meso[0]), err(cyc[1], meso[1]));
            for e in [ea, eb] {
                worst = worst.max(e);
                sum_err += e;
                n += 1;
                // The regime the paper's experiments (and our Tables
                // IV-VI) operate in: measured profiles, priority
                // difference <= 2.
                if label.contains("calibrated") && pa.abs_diff(pb) <= 2 {
                    paper_sum += e;
                    paper_n += 1;
                }
            }
            t.row_owned(vec![
                label.to_string(),
                format!("({pa},{pb})"),
                format!("{:.2}", cyc[0]),
                format!("{:.2}", meso[0]),
                format!("{:.0}%", ea * 100.0),
                format!("{:.2}", cyc[1]),
                format!("{:.2}", meso[1]),
                format!("{:.0}%", eb * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "paper regime (calibrated profiles, priority diff <= 2): mean error {:.1}% over {} measurements",
        100.0 * paper_sum / f64::from(paper_n.max(1)),
        paper_n
    );
    println!(
        "all regimes: mean {:.1}%, worst {:.1}% over {} measurements",
        100.0 * sum_err / f64::from(n),
        100.0 * worst,
        n
    );
    println!(
        "\nKnown, intended divergences: (a) at large priority differences the\n\
         mesoscale kappa=0.1 leak gives the loser the second-order uplift the\n\
         paper measured on real POWER5 silicon, which the strict-slice cycle\n\
         model does not have; (b) analytic (non-calibrated) profiles\n\
         overestimate IPC for deep-memory streams where the in-order cycle\n\
         core serializes misses."
    );
}
