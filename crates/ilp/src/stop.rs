//! Cooperative cancellation for long-running solves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation token checked cooperatively by the solvers.
///
/// Cloning a `StopFlag` shares the underlying flag: calling
/// [`StopFlag::stop`] on any clone stops every holder. [`StopFlag::child`]
/// creates a *derived* flag that also observes its parent — stopping the
/// parent stops every descendant, while stopping a child leaves the parent
/// (and its other children) running. This is how the branch-and-bound
/// search stops its own workers on a first solution while a user-level
/// stop still reaches every nested solve.
///
/// ```
/// use optimod_ilp::StopFlag;
/// let parent = StopFlag::new();
/// let a = parent.child();
/// let b = parent.child();
/// a.stop();
/// assert!(a.is_stopped() && !b.is_stopped() && !parent.is_stopped());
/// parent.stop();
/// assert!(b.is_stopped());
/// ```
#[derive(Debug, Clone)]
pub struct StopFlag(Arc<Node>);

#[derive(Debug)]
struct Node {
    stopped: AtomicBool,
    parent: Option<Arc<Node>>,
}

impl Default for StopFlag {
    fn default() -> Self {
        StopFlag::new()
    }
}

impl StopFlag {
    /// A fresh, unstopped flag with no parent.
    pub fn new() -> Self {
        StopFlag(Arc::new(Node {
            stopped: AtomicBool::new(false),
            parent: None,
        }))
    }

    /// A derived flag: stopped when either it or any ancestor is stopped.
    pub fn child(&self) -> Self {
        StopFlag(Arc::new(Node {
            stopped: AtomicBool::new(false),
            parent: Some(Arc::clone(&self.0)),
        }))
    }

    /// Requests cancellation of this flag and all flags derived from it.
    pub fn stop(&self) {
        self.0.stopped.store(true, Ordering::Release);
    }

    /// Whether this flag or any ancestor has been stopped.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        let mut node = &self.0;
        loop {
            if node.stopped.load(Ordering::Acquire) {
                return true;
            }
            match &node.parent {
                Some(p) => node = p,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = StopFlag::new();
        let b = a.clone();
        assert!(!b.is_stopped());
        a.stop();
        assert!(b.is_stopped());
    }

    #[test]
    fn grandchildren_observe_root() {
        let root = StopFlag::new();
        let gc = root.child().child();
        assert!(!gc.is_stopped());
        root.stop();
        assert!(gc.is_stopped());
    }

    #[test]
    fn sibling_isolation() {
        let root = StopFlag::new();
        let a = root.child();
        let b = root.child();
        b.stop();
        assert!(!a.is_stopped());
        assert!(b.is_stopped());
        assert!(!root.is_stopped());
    }
}
