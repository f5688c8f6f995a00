//! The per-run correctness gate: replica agreement, exactly-once apply, and
//! no failed operations. Every run passes through it; any violation makes
//! the benchmark exit non-zero.

use std::fmt;
use std::time::{Duration, Instant};

/// What one site reports at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// The site's index.
    pub site: usize,
    /// `Node::kv_digest`.
    pub digest: u64,
    /// `Node::kv_applied`.
    pub applied: usize,
}

/// One broken property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A site's replica differs from site 0's.
    Diverged {
        /// The divergent site.
        site: usize,
    },
    /// A site applied a different number of commands than were submitted
    /// (fewer: lost; more: applied twice).
    NotExactlyOnce {
        /// The site.
        site: usize,
        /// Commands it applied.
        applied: usize,
        /// Commands submitted cluster-wide.
        submitted: usize,
    },
    /// Operations that timed out or were refused.
    Failed {
        /// How many.
        count: usize,
    },
    /// A workload-specific output check failed.
    WrongOutput(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Diverged { site } => write!(f, "site {site} diverged from site 0"),
            Violation::NotExactlyOnce {
                site,
                applied,
                submitted,
            } => write!(f, "site {site} applied {applied} of {submitted} submitted"),
            Violation::Failed { count } => write!(f, "{count} operations failed"),
            Violation::WrongOutput(s) => write!(f, "wrong output: {s}"),
        }
    }
}

/// Check the end-of-run site reports against the number of commands
/// submitted and the number of operations that failed.
pub fn check(reports: &[SiteReport], submitted: usize, failed: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Some(first) = reports.first() {
        for r in &reports[1..] {
            if r.digest != first.digest {
                out.push(Violation::Diverged { site: r.site });
            }
        }
    }
    for r in reports {
        if r.applied != submitted {
            out.push(Violation::NotExactlyOnce {
                site: r.site,
                applied: r.applied,
                submitted,
            });
        }
    }
    if failed > 0 {
        out.push(Violation::Failed { count: failed });
    }
    out
}

/// Poll `reports` until every site has applied `submitted` commands or
/// `deadline` passes, then return the last reports. Real sockets have no
/// quiescence oracle, so both backends use this one idiom.
pub fn poll_reports(
    submitted: usize,
    deadline: Duration,
    mut reports: impl FnMut() -> Vec<SiteReport>,
) -> Vec<SiteReport> {
    let end = Instant::now() + deadline;
    loop {
        let r = reports();
        if r.iter().all(|s| s.applied == submitted) || Instant::now() >= end {
            return r;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(applied: usize) -> Vec<SiteReport> {
        (0..3)
            .map(|site| SiteReport {
                site,
                digest: 0xfeed,
                applied,
            })
            .collect()
    }

    #[test]
    fn healthy_run_passes() {
        assert!(check(&healthy(150), 150, 0).is_empty());
    }

    #[test]
    fn divergent_digest_is_flagged() {
        let mut r = healthy(150);
        r[2].digest = 0xbeef;
        assert_eq!(check(&r, 150, 0), vec![Violation::Diverged { site: 2 }]);
    }

    #[test]
    fn double_apply_is_flagged() {
        let mut r = healthy(150);
        r[1].applied = 151;
        assert_eq!(
            check(&r, 150, 0),
            vec![Violation::NotExactlyOnce {
                site: 1,
                applied: 151,
                submitted: 150
            }]
        );
    }

    #[test]
    fn lost_apply_is_flagged() {
        let v = check(&healthy(149), 150, 0);
        assert_eq!(v.len(), 3);
        assert!(v
            .iter()
            .all(|v| matches!(v, Violation::NotExactlyOnce { applied: 149, .. })));
    }

    #[test]
    fn timeouts_are_flagged() {
        assert_eq!(
            check(&healthy(150), 150, 2),
            vec![Violation::Failed { count: 2 }]
        );
    }

    #[test]
    fn polling_stops_at_the_target_or_the_deadline() {
        let mut calls = 0;
        let r = poll_reports(150, Duration::from_secs(5), || {
            calls += 1;
            healthy(if calls < 3 { 149 } else { 150 })
        });
        assert_eq!(calls, 3);
        assert!(check(&r, 150, 0).is_empty());
        let r = poll_reports(150, Duration::from_millis(20), || healthy(151));
        assert_eq!(check(&r, 150, 0).len(), 3);
    }
}
