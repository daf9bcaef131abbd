//! Cooperative cancellation for long-running analyses.
//!
//! The workspace runs CPU-bound sweeps (simulation, SAT, cone analysis)
//! on plain scoped threads; nothing can pre-empt them. Robust batch
//! operation therefore needs a *cooperative* protocol: every loop that
//! can run for more than a few milliseconds periodically polls a shared
//! [`CancelToken`] and winds down early when it has fired.
//!
//! A token fires for either of two reasons:
//!
//! * someone called [`CancelToken::cancel`] (operator abort, a sibling
//!   job failing fast, process shutdown), or
//! * its **deadline** passed — tokens can carry a wall-clock deadline so
//!   per-job time limits are enforced by the workers themselves instead
//!   of by an unkillable watchdog.
//!
//! The cancel *flag* is shared by all clones and children of a token;
//! the *deadline* is per handle, so a stage can run under a tighter
//! deadline ([`CancelToken::bounded_by`]) without its expiry aborting
//! the surrounding job.
//!
//! The contract (documented in DESIGN.md §10): holders poll
//! [`CancelToken::is_cancelled`] at least once per bounded unit of work —
//! a simulation sub-batch, a SAT attempt, one gate sweep — and return
//! through their normal "budget exhausted" path. Cancellation is
//! best-effort and monotonic: once fired, a flag never un-fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, clonable cancellation flag with an optional deadline.
///
/// Clones share the flag: cancelling any clone cancels them all. The
/// token with no deadline ([`CancelToken::new`]) never fires on its own
/// and is cheap enough to thread through paths that rarely cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// `Some` when this handle self-fires at a wall-clock instant.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that fires only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally self-fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token that self-fires after `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Fires the shared flag (idempotent; visible to all clones and
    /// [`bounded_by`](CancelToken::bounded_by) children).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once this handle has fired — via the shared flag or this
    /// handle's deadline. A deadline expiry does **not** raise the shared
    /// flag, so a stage-scoped child timing out leaves its parent live.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline this handle self-fires at, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// A handle on the shared cancel flag itself, for arming components
    /// that poll a raw `AtomicBool` (e.g. a SAT solver interrupt). The
    /// flag does **not** reflect this handle's deadline — pass
    /// [`CancelToken::deadline`] alongside where deadline enforcement is
    /// needed.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// A child handle sharing this token's cancel flag, with its deadline
    /// tightened to the earlier of this handle's and `other` — how a
    /// stage-level time limit composes with a job-level token.
    pub fn bounded_by(&self, other: Option<Instant>) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: match (self.deadline, other) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones_and_monotonic() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
        // Never un-fires.
        assert!(t.is_cancelled());
    }

    #[test]
    fn expired_deadline_fires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn future_deadline_does_not_fire_early() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn bounded_child_takes_the_earlier_deadline() {
        let now = Instant::now();
        let a = now + Duration::from_secs(1);
        let b = now + Duration::from_secs(2);
        let t = CancelToken::with_deadline(a);
        assert_eq!(t.bounded_by(Some(b)).deadline(), Some(a));
        assert_eq!(t.bounded_by(None).deadline(), Some(a));
        let u = CancelToken::new();
        assert_eq!(u.bounded_by(Some(b)).deadline(), Some(b));
        assert_eq!(u.bounded_by(None).deadline(), None);
    }

    #[test]
    fn child_deadline_expiry_does_not_cancel_the_parent() {
        let parent = CancelToken::new();
        let child = parent.bounded_by(Some(Instant::now() - Duration::from_millis(1)));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        // The flag still propagates parent -> child and child -> parent.
        child.cancel();
        assert!(parent.is_cancelled());
    }
}
