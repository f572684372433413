//! Process-wide worker-thread budget.
//!
//! Parallel execution spawns threads in two places — morsel-parallel
//! local queries and threaded cluster workers — and a server handles
//! many connections at once. Without coordination, eight reader
//! connections each asking for eight threads would oversubscribe the
//! machine 8×. The budget is a single global
//! counter of *extra* worker threads (beyond the calling thread) the
//! process may have in flight: callers [`try_acquire`] permits before
//! spawning and [`release`] them when the parallel region ends, degrading
//! gracefully to fewer threads — ultimately to single-threaded execution,
//! which is always correct — when the budget is exhausted.
//!
//! The default budget is unlimited (embedded/CLI use, where one session
//! runs one query at a time); `rex-serverd` caps it with `--threads` so
//! concurrent connections share the configured pool instead of each
//! bringing their own.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for "no budget configured": acquisition always succeeds and
/// releases are no-ops.
const UNLIMITED: usize = usize::MAX;

static BUDGET: AtomicUsize = AtomicUsize::new(UNLIMITED);

/// Cap the process's extra worker threads at `n` (replacing any previous
/// budget, including outstanding accounting — call once at startup).
pub fn set_budget(n: usize) {
    BUDGET.store(n, Ordering::SeqCst);
}

/// Remove the cap, returning to the unlimited default.
pub fn set_unlimited() {
    BUDGET.store(UNLIMITED, Ordering::SeqCst);
}

/// Permits currently available, or `None` when unlimited.
pub fn available() -> Option<usize> {
    match BUDGET.load(Ordering::SeqCst) {
        UNLIMITED => None,
        n => Some(n),
    }
}

/// Acquire up to `want` worker-thread permits; returns how many were
/// granted (possibly 0). Every granted permit must be handed back via
/// [`release`].
pub fn try_acquire(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    loop {
        let cur = BUDGET.load(Ordering::SeqCst);
        if cur == UNLIMITED {
            return want;
        }
        let got = want.min(cur);
        if got == 0 {
            return 0;
        }
        if BUDGET.compare_exchange(cur, cur - got, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            return got;
        }
    }
}

/// Return `n` permits obtained from [`try_acquire`].
pub fn release(n: usize) {
    if n == 0 {
        return;
    }
    loop {
        let cur = BUDGET.load(Ordering::SeqCst);
        // Under the unlimited default, permits are not tracked.
        if cur == UNLIMITED {
            return;
        }
        if BUDGET.compare_exchange(cur, cur + n, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_lifecycle() {
        // The budget is process-global, so this single test exercises the
        // whole lifecycle to avoid interleaving with itself.
        assert_eq!(try_acquire(0), 0);
        set_budget(3);
        let a = try_acquire(2);
        assert_eq!(a, 2);
        let b = try_acquire(2);
        assert_eq!(b, 1, "only one permit left");
        assert_eq!(try_acquire(1), 0, "budget exhausted");
        release(a + b);
        assert_eq!(available(), Some(3));
        set_unlimited();
        assert_eq!(available(), None);
        assert_eq!(try_acquire(64), 64, "unlimited grants anything");
        release(64);
    }
}
