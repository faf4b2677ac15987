//! Sweep every OS-settable priority pair for two co-running ranks and
//! compare the what-if predictor against full simulation — the systematic
//! version of the paper's manual case exploration, including the case-D
//! cliff.
//!
//! ```sh
//! cargo run --release --example explore_priorities
//! ```

use mtbalance::workloads::loads::metbench_load;
use mtbalance::{
    cycles_to_seconds, execute, pair_makespan, CtxAddr, HwPriority, PrioritySetting,
    ProgramBuilder, StaticRun, Table, WorkSpec,
};

fn main() {
    // Rank 0 carries 4x the work of rank 1 (MetBench-like), both on one
    // SMT core.
    let load = metbench_load(3);
    let (work_heavy, work_light) = (4_000_000_000u64, 1_000_000_000u64);
    let prog = |w: u64| {
        ProgramBuilder::new()
            .compute(WorkSpec::new(load.clone(), w))
            .barrier()
            .build()
    };
    let progs = vec![prog(work_heavy), prog(work_light)];
    let placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(1)];

    let mut t = Table::new(&[
        "P(heavy)",
        "P(light)",
        "simulated (s)",
        "predicted (s)",
        "note",
    ])
    .with_title("priority sweep: heavy rank with 4x the work of its core-mate");

    let prio = |p: u8| HwPriority::new(p).expect("OS-settable priority");
    let mut best = (4u8, 4u8, f64::INFINITY);
    for ph in 2..=6u8 {
        for pl in 2..=6u8 {
            if ph < pl {
                continue; // no reason to penalize the heavy rank
            }
            let run = execute(
                StaticRun::new(&progs, placement.clone()).with_priorities(vec![
                    PrioritySetting::ProcFs(ph),
                    PrioritySetting::ProcFs(pl),
                ]),
            )
            .unwrap();
            let sim = cycles_to_seconds(run.total_cycles);
            let pred = pair_makespan(
                &load.profile,
                &load.profile,
                work_heavy,
                work_light,
                prio(ph),
                prio(pl),
            )
            .map_or(f64::INFINITY, |(t, _)| t)
                / mtbalance::trace::NOMINAL_CLOCK_HZ;
            if sim < best.2 {
                best = (ph, pl, sim);
            }
            let note = match ph - pl {
                0 => "reference-like",
                1 => "paper case B/C regime",
                2 => "",
                3 => "case D territory",
                _ => "collapse of the penalized rank",
            };
            t.row_owned(vec![
                ph.to_string(),
                pl.to_string(),
                format!("{sim:.3}"),
                format!("{pred:.3}"),
                note.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "best simulated pair: heavy={} light={} at {:.3}s",
        best.0, best.1, best.2
    );
}
