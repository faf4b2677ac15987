//! ASCII Gantt rendering of process timelines.
//!
//! The paper's Figures 1-4 are PARAVER screenshots: one horizontal bar per
//! process, time on the x-axis, colors encoding the process state. This
//! module renders the same picture as text, one row per process, using the
//! glyphs defined on [`ProcState`]: `#` compute, `.` sync-wait, `%` comm,
//! `!` interrupt, `i` init, `f` finalize.

use crate::state::ProcState;
use crate::timeline::Timeline;
use crate::Cycles;

/// Rendering options for [`render_gantt`].
#[derive(Debug, Clone)]
pub struct GanttConfig {
    /// Number of character columns used for the time axis.
    pub width: usize,
    /// Render a legend below the chart.
    pub legend: bool,
    /// Optional title above the chart.
    pub title: Option<String>,
    /// Optional time window `[start, end)` to zoom into (the whole trace
    /// when `None`) — the PARAVER-style region inspection.
    pub window: Option<(Cycles, Cycles)>,
}

impl Default for GanttConfig {
    fn default() -> Self {
        GanttConfig {
            width: 100,
            legend: true,
            title: None,
            window: None,
        }
    }
}

/// Render a set of timelines as an ASCII Gantt chart.
///
/// Each output row is `label |<glyphs>|`; every column represents an equal
/// slice of `[min start, max end)`; the glyph of a column is the state the
/// process was in at the *midpoint* of that slice (blank when the process
/// did not exist at that time).
pub fn render_gantt(timelines: &[Timeline], cfg: &GanttConfig) -> String {
    let mut out = String::new();
    if let Some(t) = &cfg.title {
        out.push_str(t);
        out.push('\n');
    }
    if timelines.is_empty() || cfg.width == 0 {
        out.push_str("(no timelines)\n");
        return out;
    }
    let (t_min, t_max) = cfg.window.unwrap_or_else(|| {
        (
            timelines.iter().map(Timeline::start).min().unwrap_or(0),
            timelines.iter().map(Timeline::end).max().unwrap_or(0),
        )
    });
    let span = t_max.saturating_sub(t_min).max(1);

    let label_w = timelines
        .iter()
        .map(|t| t.label.len())
        .max()
        .unwrap_or(2)
        .max(2);

    for tl in timelines {
        out.push_str(&format!("{:>w$} |", tl.label, w = label_w));
        for col in 0..cfg.width {
            // Midpoint of the column in simulated time.
            let t =
                t_min + ((2 * col as u128 + 1) * span as u128 / (2 * cfg.width as u128)) as Cycles;
            let glyph = tl.state_at(t).map_or(' ', ProcState::glyph);
            out.push(glyph);
        }
        out.push_str("|\n");
    }

    // Time axis.
    out.push_str(&format!("{:>w$} +", "", w = label_w));
    out.push_str(&"-".repeat(cfg.width));
    out.push_str("+\n");
    out.push_str(&format!(
        "{:>w$}  {:<left$}{:>right$}\n",
        "",
        format!("{t_min}"),
        format!("{t_max} cycles"),
        w = label_w,
        left = cfg.width / 2,
        right = cfg.width - cfg.width / 2,
    ));

    if cfg.legend {
        out.push_str("legend:");
        for s in ProcState::ALL {
            if s == ProcState::Idle {
                continue;
            }
            out.push_str(&format!(" {}={}", s.glyph(), s.name()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineBuilder;

    fn two_procs() -> Vec<Timeline> {
        let mut b0 = TimelineBuilder::new(0, "P1", 0, ProcState::Compute);
        b0.enter(ProcState::Sync, 50);
        let t0 = b0.finish(100);
        let b1 = TimelineBuilder::new(1, "P2", 0, ProcState::Compute);
        let t1 = b1.finish(100);
        vec![t0, t1]
    }

    #[test]
    fn renders_one_row_per_process() {
        let s = render_gantt(
            &two_procs(),
            &GanttConfig {
                width: 20,
                legend: false,
                title: None,
                window: None,
            },
        );
        let rows: Vec<&str> = s.lines().collect();
        assert!(rows[0].starts_with("P1 |"));
        assert!(rows[1].starts_with("P2 |"));
        // P1: first half compute, second half sync.
        let body: String = rows[0].chars().skip(4).take(20).collect();
        assert_eq!(&body[..10], "##########");
        assert_eq!(&body[10..], "..........");
    }

    #[test]
    fn full_compute_row_is_all_hash() {
        let s = render_gantt(
            &two_procs(),
            &GanttConfig {
                width: 16,
                legend: false,
                title: None,
                window: None,
            },
        );
        let p2 = s.lines().nth(1).unwrap();
        let body: String = p2.chars().skip(4).take(16).collect();
        assert_eq!(body, "#".repeat(16));
    }

    #[test]
    fn legend_and_title_render_when_requested() {
        let cfg = GanttConfig {
            width: 10,
            legend: true,
            title: Some("Figure 1".into()),
            window: None,
        };
        let s = render_gantt(&two_procs(), &cfg);
        assert!(s.starts_with("Figure 1\n"));
        assert!(s.contains("legend:"));
        assert!(s.contains("#=compute"));
    }

    #[test]
    fn empty_input_does_not_panic() {
        let s = render_gantt(&[], &GanttConfig::default());
        assert!(s.contains("(no timelines)"));
    }

    #[test]
    fn rows_have_uniform_width() {
        let s = render_gantt(
            &two_procs(),
            &GanttConfig {
                width: 33,
                legend: false,
                title: None,
                window: None,
            },
        );
        let lens: Vec<usize> = s.lines().take(3).map(|l| l.chars().count()).collect();
        assert_eq!(lens[0], lens[1]);
        assert_eq!(lens[1], lens[2]);
    }

    #[test]
    fn window_zooms_into_a_region() {
        // P1 computes 0..50, syncs 50..100. Zoom into the sync half.
        let cfg = GanttConfig {
            width: 10,
            legend: false,
            title: None,
            window: Some((50, 100)),
        };
        let s = render_gantt(&two_procs(), &cfg);
        let p1 = s.lines().next().unwrap();
        let body: String = p1.chars().skip(4).take(10).collect();
        assert_eq!(body, "..........", "zoomed view shows only sync: {body}");
        assert!(s.contains("50"), "axis shows the window start");
    }

    #[test]
    fn zero_width_is_handled() {
        let s = render_gantt(
            &two_procs(),
            &GanttConfig {
                width: 0,
                legend: false,
                title: None,
                window: None,
            },
        );
        assert!(s.contains("(no timelines)"));
    }
}
