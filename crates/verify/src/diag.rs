//! Structured diagnostics: severities, stable lint codes, spans.
//!
//! Every analyzer pass reports through a [`Report`]. A diagnostic carries
//! a stable code (the `MTB-*` identifiers documented in EXPERIMENTS.md),
//! a [`Severity`], an optional rank and statement-path span, and a
//! human-readable message. The severity policy:
//!
//! * **Error** — the configuration will deadlock, crash, or starve: the
//!   engine would refuse it or never terminate. `mtb lint` exits nonzero.
//! * **Warning** — legal but suspicious: likely a performance or
//!   portability hazard (e.g. a priority pair predicted to *invert* the
//!   imbalance the paper's Section V warns about).
//! * **Info** — stylistic or informational findings.

use mtb_mpisim::Rank;
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Legal but suspicious.
    Warning,
    /// Will not run correctly.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint codes. Codes are append-only: once published they never
/// change meaning (tooling may match on them).
pub mod codes {
    /// Cyclic blocking-receive waits: a wait-for cycle among ranks.
    pub const DEADLOCK_CYCLE: &str = "MTB-DEADLOCK-CYCLE";
    /// A blocking `Recv` (or a `WaitAll` covering an `Irecv`) that no
    /// peer `Send` ever matches.
    pub const UNMATCHED_RECV: &str = "MTB-UNMATCHED-RECV";
    /// A `Send` no receive ever consumes (message leaks; harmless under
    /// the eager protocol but almost certainly a program bug).
    pub const UNMATCHED_SEND: &str = "MTB-UNMATCHED-SEND";
    /// An `Irecv` never completed by a later `WaitAll`.
    pub const ORPHAN_IRECV: &str = "MTB-ORPHAN-IRECV";
    /// Ranks disagree on their collective sequence (count or kind), or a
    /// rank finishes while peers still sit in a collective.
    pub const COLLECTIVE_MISMATCH: &str = "MTB-COLLECTIVE-MISMATCH";
    /// A `to`/`from`/`root` outside `0..n_ranks`.
    pub const RANK_RANGE: &str = "MTB-RANK-RANGE";
    /// A rank sends to itself (legal under the eager protocol if the
    /// send precedes the matching receive, but worth flagging).
    pub const SELF_SEND: &str = "MTB-SELF-SEND";
    /// `WaitAll` with no pending handles (a no-op).
    pub const WAITALL_EMPTY: &str = "MTB-WAITALL-EMPTY";
    /// `Loop { count: 0 }` — the body never executes.
    pub const EMPTY_LOOP: &str = "MTB-EMPTY-LOOP";
    /// A priority value the configured kernel interface cannot set
    /// (Table I privilege rules; `/proc` accepts only 1..=6).
    pub const PRIO_ILLEGAL: &str = "MTB-PRIO-ILLEGAL";
    /// A priority pair that starves one thread (priority 0 stops decode
    /// entirely; 1 against a much higher sibling is effectively starved).
    pub const PRIO_STARVE: &str = "MTB-PRIO-STARVE";
    /// A pair whose priority difference exceeds the dynamic balancer's
    /// bounded-difference limit.
    pub const PRIO_DIFF: &str = "MTB-PRIO-DIFF";
    /// A priority pair the decode-share model predicts will *invert* the
    /// compute imbalance (the paper's case-D hazard).
    pub const PRIO_INVERT: &str = "MTB-PRIO-INVERT";
    /// A non-contiguous share-group (L2-domain) placement collapses the
    /// machine's sharded stepping to a single shard: the run stays
    /// correct but `--jobs` buys no intra-run speedup. The runtime note
    /// embedded in run records carries the same code.
    pub const SHARD_COLLAPSE: &str = mtb_oskernel::SHARD_COLLAPSE_CODE;
    /// Two high-ILP ranks co-scheduled on one SMT core with overlapping
    /// unit mixes: both want more than the fair decode share, so pairing
    /// each with a low-ILP rank is predicted to be faster (ILP-aware
    /// co-scheduling).
    pub const ILP_CONFLICT: &str = "MTB-ILP-CONFLICT";
    /// The predicted bottleneck rank does not share a core with a short
    /// rank, wasting the decode slots the short rank's early finish
    /// would donate.
    pub const BOTTLENECK_UNPAIRED: &str = "MTB-BOTTLENECK-UNPAIRED";
    /// A strictly better `(placement, priorities)` plan exists in the
    /// static search space (`mtb suggest` ranks it).
    pub const PLAN_DOMINATED: &str = "MTB-PLAN-DOMINATED";
    /// The dynamic balancer's `max_diff` exceeds the bounded-difference
    /// limit: the decode-share model predicts the penalized thread
    /// collapses superlinearly beyond it (Table IV case D).
    pub const CTRL_DIFF: &str = "MTB-CTRL-DIFF";
    /// The dynamic balancer's EWMA smoothing factor is outside `[0, 1]`
    /// (diverges) or so close to 1 the controller never reacts.
    pub const CTRL_EWMA: &str = "MTB-CTRL-EWMA";
    /// Controller gain/hysteresis ranges predicted to thrash: an
    /// imbalance threshold below 1.0 chases noise, an inverted strong
    /// threshold makes a tier unreachable, a zero cool-off re-adjusts a
    /// just-reverted pair immediately.
    pub const CTRL_THRASH: &str = "MTB-CTRL-THRASH";
    /// A negative revert tolerance reverts every adjustment and freezes
    /// pairs immediately — the controller starves itself.
    pub const CTRL_REVERT: &str = "MTB-CTRL-REVERT";
    /// The controller's decision window is too long to converge within
    /// the app's makespan: walking the priority ladder one audited step
    /// per window (plus one revert/cool-off detour) needs more sync
    /// epochs than the run has, so the policy never reaches its target.
    pub const CTRL_LAG: &str = "MTB-CTRL-LAG";
    /// A cross-core remap is enabled on a pinned placement: level 1 of
    /// the two-level controller would request migrations the deployment
    /// forbids, leaving the saturated pair stuck at its priority cap.
    pub const CTRL_REMAP_PINNED: &str = "MTB-CTRL-REMAP-PINNED";

    /// Every stable code, for the catalog-drift test: each entry must
    /// appear in EXPERIMENTS.md's lint-code catalog and vice versa.
    pub const ALL: &[&str] = &[
        DEADLOCK_CYCLE,
        UNMATCHED_RECV,
        UNMATCHED_SEND,
        ORPHAN_IRECV,
        COLLECTIVE_MISMATCH,
        RANK_RANGE,
        SELF_SEND,
        WAITALL_EMPTY,
        EMPTY_LOOP,
        PRIO_ILLEGAL,
        PRIO_STARVE,
        PRIO_DIFF,
        PRIO_INVERT,
        SHARD_COLLAPSE,
        ILP_CONFLICT,
        BOTTLENECK_UNPAIRED,
        PLAN_DOMINATED,
        CTRL_DIFF,
        CTRL_EWMA,
        CTRL_THRASH,
        CTRL_REVERT,
        CTRL_LAG,
        CTRL_REMAP_PINNED,
    ];
}

/// Check a per-core share-group layout (`groups[i]` = core *i*'s shared
/// domain, `None` = independent) for the non-contiguous placement that
/// forces the machine to advance as one shard. Returns the
/// [`codes::SHARD_COLLAPSE`] warning when a domain reappears after a
/// different domain interrupted it.
pub fn check_share_groups(groups: &[Option<usize>]) -> Option<Diagnostic> {
    let mut seen: Vec<usize> = Vec::new();
    for i in 1..groups.len() {
        let prev = groups[i - 1];
        let cur = groups[i];
        if cur.is_none() || cur != prev {
            if let Some(g) = prev {
                seen.push(g);
            }
            if let Some(g) = cur {
                if seen.contains(&g) {
                    return Some(Diagnostic::new(
                        codes::SHARD_COLLAPSE,
                        Severity::Warning,
                        format!(
                            "share group of core {i} already appeared earlier, \
                             non-contiguously: sharded stepping collapses to one \
                             shard and --jobs cannot speed this run up"
                        ),
                    ));
                }
            }
        }
    }
    None
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code (`MTB-*`).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The rank the finding is about, if rank-specific.
    pub rank: Option<Rank>,
    /// Statement path within the rank's program (see
    /// [`mtb_mpisim::interp::path_string`]), if op-specific.
    pub path: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with no span.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            rank: None,
            path: None,
            message: message.into(),
        }
    }

    /// Attach a rank span.
    pub fn with_rank(mut self, rank: Rank) -> Diagnostic {
        self.rank = Some(rank);
        self
    }

    /// Attach a statement-path span.
    pub fn with_path(mut self, path: impl Into<String>) -> Diagnostic {
        self.path = Some(path.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(rank) = self.rank {
            write!(f, " rank {rank}")?;
            if let Some(path) = &self.path {
                write!(f, " at {path}")?;
            }
        } else if let Some(path) = &self.path {
            write!(f, " at {path}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a verification run: every diagnostic, in discovery
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Does the report contain at least one Error?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The worst severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Does any finding carry `code`?
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "clean: no findings");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Report {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_worst() {
        let mut r = Report::new();
        assert_eq!(r.worst(), None);
        assert!(!r.has_errors());
        r.push(Diagnostic::new(codes::SELF_SEND, Severity::Info, "i"));
        r.push(Diagnostic::new(codes::PRIO_INVERT, Severity::Warning, "w"));
        assert_eq!(r.worst(), Some(Severity::Warning));
        assert!(!r.has_errors());
        r.push(
            Diagnostic::new(codes::DEADLOCK_CYCLE, Severity::Error, "e")
                .with_rank(1)
                .with_path("0/it2/1"),
        );
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert!(r.has_code(codes::DEADLOCK_CYCLE));
        assert!(!r.has_code(codes::PRIO_DIFF));
    }

    #[test]
    fn share_group_check_flags_only_non_contiguous_layouts() {
        // Contiguous pairs: fine.
        assert_eq!(
            check_share_groups(&[Some(1), Some(1), Some(2), Some(2)]),
            None
        );
        // Independent cores: fine.
        assert_eq!(check_share_groups(&[None, None, None]), None);
        // One machine-wide domain: fine (legitimately one shard).
        assert_eq!(check_share_groups(&[Some(9), Some(9), Some(9)]), None);
        // Interleaved domains: the collapse hazard.
        let d = check_share_groups(&[Some(1), Some(2), Some(1), Some(2)])
            .expect("interleaved domains must be flagged");
        assert_eq!(d.code, codes::SHARD_COLLAPSE);
        assert_eq!(d.severity, Severity::Warning);
        // A domain split by an independent core also collapses.
        assert!(check_share_groups(&[Some(1), None, Some(1)]).is_some());
    }

    #[test]
    fn diagnostic_display_includes_span() {
        let d = Diagnostic::new(codes::UNMATCHED_RECV, Severity::Error, "never matched")
            .with_rank(3)
            .with_path("1/it0/2");
        let s = d.to_string();
        assert!(s.contains("error[MTB-UNMATCHED-RECV]"), "{s}");
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("1/it0/2"), "{s}");
    }
}
