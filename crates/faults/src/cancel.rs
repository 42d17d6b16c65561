//! Cooperative cancellation: a [`CancelToken`] (shared flag + optional
//! wall-clock deadline) that long-running simulator loops poll, so a job
//! server's deadline expiry or graceful shutdown stops work *inside* the
//! loop instead of abandoning it on a detached thread.
//!
//! Three layers cooperate:
//!
//! * **Owners** (the job server, the sweep engine) create a token, keep a
//!   clone, and may [`CancelToken::cancel`] it at any time; a token built
//!   with [`CancelToken::with_deadline`] additionally trips itself when
//!   the budget elapses.
//! * **Scopes** ([`enter`]) publish the token to the current thread so
//!   deeply nested code needs no signature changes: `memsim::seq::Mem`
//!   captures the scoped token at construction, and the distributed
//!   simulators call [`poll`] at round boundaries.
//! * **Bail-out** is a panic with the [`Cancelled`] sentinel payload
//!   ([`CancelToken::bail_if_cancelled`]). Every worker that runs jobs
//!   (the sweep engine, the serve worker pool, the `fastmm` job
//!   commands) runs them under [`isolate`], which tells the two apart:
//!   `Cancelled` means "stopped on request", any other payload is a real
//!   fault. [`silence_cancel_panics`] keeps the default panic hook from
//!   spamming stderr for the sentinel.
//!
//! Polling cost: the no-token and not-cancelled paths are one thread-local
//! borrow / one relaxed atomic load; `Instant::now()` is only consulted
//! when a deadline is set, so hot loops poll at a stride (the memory
//! simulator checks every [`POLL_STRIDE`] accesses).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many hot-loop iterations (e.g. simulated memory accesses) between
/// deadline checks. Chosen so even the fastest instrumented loops poll
/// many times per millisecond while paying one counter increment per
/// iteration.
pub const POLL_STRIDE: u32 = 1024;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// Why a token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (shutdown, drain, user abort).
    Cancelled,
    /// The token's wall-clock deadline elapsed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    deadline: Option<Instant>,
}

/// A shareable cancellation flag with an optional deadline. Cloning is
/// cheap (an `Arc` bump) and every clone observes the same state.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token that additionally fires once `budget` has elapsed.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Request cancellation. Idempotent; a deadline that already fired
    /// keeps its `DeadlineExceeded` reason.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Why the token fired, or `None` while it is live. Checking the
    /// deadline costs one `Instant::now()` — poll at a stride from tight
    /// loops.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => match self.inner.deadline {
                Some(d) if Instant::now() >= d => {
                    let _ = self.inner.state.compare_exchange(
                        LIVE,
                        DEADLINE,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    // Reload rather than assume: a concurrent cancel() wins.
                    match self.inner.state.load(Ordering::Relaxed) {
                        CANCELLED => Some(CancelReason::Cancelled),
                        _ => Some(CancelReason::DeadlineExceeded),
                    }
                }
                _ => None,
            },
        }
    }

    /// Unwind with the [`Cancelled`] sentinel if the token has fired.
    /// This is the cooperative bail-out every instrumented loop uses; the
    /// nearest `catch_unwind` (worker pool, sweep engine) maps it to a
    /// structured "cancelled" / "deadline exceeded" outcome.
    #[inline]
    pub fn bail_if_cancelled(&self) {
        if let Some(reason) = self.reason() {
            std::panic::panic_any(Cancelled(reason));
        }
    }

    /// Sleep for `total`, waking early (with a [`Cancelled`] unwind) if
    /// the token fires. Used by test hooks that simulate hung work — the
    /// hang must observe cancellation like real work does.
    pub fn cancellable_sleep(&self, total: Duration) {
        let end = Instant::now() + total;
        loop {
            self.bail_if_cancelled();
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(Duration::from_millis(2)));
        }
    }
}

/// The panic payload [`CancelToken::bail_if_cancelled`] unwinds with.
/// Carries the reason so the catcher can distinguish deadline expiry from
/// an explicit cancel.
#[derive(Clone, Copy, Debug)]
pub struct Cancelled(pub CancelReason);

/// If `payload` (from `catch_unwind`) is the cancellation sentinel,
/// return its reason.
pub fn cancelled_reason(payload: &(dyn std::any::Any + Send)) -> Option<CancelReason> {
    payload.downcast_ref::<Cancelled>().map(|c| c.0)
}

/// The message a panic was raised with (`panic!("…")` payloads are
/// `&str` or `String`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Why an [`isolate`]d run did not return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stopped {
    /// It bailed out on its cancel token.
    Cancelled(CancelReason),
    /// It panicked; the panic's message.
    Panicked(String),
}

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stopped::Cancelled(reason) => write!(f, "cancelled: {reason:?}"),
            Stopped::Panicked(message) => write!(f, "panic: {message}"),
        }
    }
}

/// Run `f` the way a worker runs a job or a sweep cell: a panic comes
/// back as [`Stopped`] (a cancellation bail-out with its reason, any
/// other panic with its message) and the default hook stays quiet, so a
/// poison job costs one line, not a backtrace.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, Stopped> {
    silence_cancel_panics();
    let _quiet = quiet_panics();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        match cancelled_reason(payload.as_ref()) {
            Some(reason) => Stopped::Cancelled(reason),
            None => Stopped::Panicked(panic_message(payload.as_ref())),
        }
    })
}

thread_local! {
    /// Stack of scoped tokens; the innermost governs this thread.
    static SCOPED: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// The innermost token published to this thread via [`enter`], if any.
pub fn current() -> Option<CancelToken> {
    SCOPED.with(|s| s.borrow().last().cloned())
}

/// Publish `token` to the current thread until the returned guard drops.
/// Nested scopes stack; the innermost wins.
pub fn enter(token: &CancelToken) -> ScopeGuard {
    SCOPED.with(|s| s.borrow_mut().push(token.clone()));
    ScopeGuard { _priv: () }
}

/// RAII guard for [`enter`]; popping happens on drop (unwind included,
/// which is what keeps the stack balanced across a cancellation panic).
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Poll the current thread's scoped token (no-op without one). Placed at
/// round boundaries of the distributed simulators — coarse enough to be
/// free, fine enough that a deadline never waits more than one round.
#[inline]
pub fn poll() {
    SCOPED.with(|s| {
        if let Some(token) = s.borrow().last() {
            token.bail_if_cancelled();
        }
    });
}

thread_local! {
    /// Depth of [`quiet_panics`] scopes on this thread (a count, so
    /// nested scopes compose).
    static QUIET: Cell<u32> = const { Cell::new(0) };
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" stderr noise for the [`Cancelled`] sentinel and
/// delegates everything else to the previous hook. Cancellation is
/// control flow here, not a fault; it should not look like one in logs.
///
/// The hook also honours [`quiet_panics`] scopes: a worker that runs
/// untrusted jobs under `catch_unwind` and reports the panic through its
/// own channel can mute the duplicate hook output for just that span.
pub fn silence_cancel_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let muted =
                info.payload().downcast_ref::<Cancelled>().is_some() || QUIET.with(|q| q.get() > 0);
            if !muted {
                prev(info);
            }
        }));
    });
}

/// Mute the default panic-hook output on this thread until the returned
/// guard drops (requires [`silence_cancel_panics`] to have installed the
/// hook). For `catch_unwind` worker loops that surface the panic message
/// themselves — one structured reply beats a per-job backtrace in logs.
pub fn quiet_panics() -> QuietGuard {
    QUIET.with(|q| q.set(q.get() + 1));
    QuietGuard { _priv: () }
}

/// RAII guard for [`quiet_panics`]; drop restores the previous verbosity
/// (unwind included — a panic inside the scope stays quiet, then the
/// guard's drop re-arms the hook for code outside it).
pub struct QuietGuard {
    _priv: (),
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET.with(|q| q.set(q.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        t.bail_if_cancelled(); // must not unwind
    }

    #[test]
    fn cancel_latches_and_clones_observe() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert_eq!(c.reason(), Some(CancelReason::Cancelled));
        t.cancel(); // idempotent
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_fires_with_its_own_reason() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // Explicit cancel after expiry keeps the deadline reason.
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn unexpired_deadline_stays_live() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn bail_unwinds_with_sentinel() {
        silence_cancel_panics();
        let t = CancelToken::new();
        t.cancel();
        let err = std::panic::catch_unwind(|| t.bail_if_cancelled()).unwrap_err();
        assert_eq!(
            cancelled_reason(err.as_ref()),
            Some(CancelReason::Cancelled)
        );
        // Ordinary panics are not mistaken for cancellation.
        let err = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(cancelled_reason(err.as_ref()), None);
    }

    #[test]
    fn scoped_tokens_stack_and_unwind_cleanly() {
        silence_cancel_panics();
        assert!(current().is_none());
        let outer = CancelToken::new();
        let _g = enter(&outer);
        assert!(current().unwrap().reason().is_none());
        {
            let inner = CancelToken::new();
            inner.cancel();
            let _g2 = enter(&inner);
            assert!(current().unwrap().reason().is_some());
            // poll() must unwind on the inner token…
            assert!(std::panic::catch_unwind(poll).is_err());
        }
        // …and the stack must still be balanced afterwards.
        assert!(current().unwrap().reason().is_none());
        poll(); // outer token live: no unwind
        drop(_g);
        assert!(current().is_none());
    }

    #[test]
    fn quiet_scope_balances_across_unwind_and_nesting() {
        silence_cancel_panics();
        let depth = || QUIET.with(|q| q.get());
        assert_eq!(depth(), 0);
        {
            let _g = quiet_panics();
            assert_eq!(depth(), 1);
            // A panic inside the scope unwinds with its payload intact
            // (quieting mutes the hook, not the unwind) and the guard's
            // drop still runs.
            let err = std::panic::catch_unwind(|| {
                let _inner = quiet_panics();
                assert_eq!(depth(), 2);
                panic!("muted boom");
            })
            .unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"muted boom"));
            assert_eq!(depth(), 1);
        }
        assert_eq!(depth(), 0);
    }

    #[test]
    fn isolate_turns_a_panic_into_its_message() {
        assert_eq!(isolate(|| 7), Ok(7));
        let stopped = isolate(|| panic!("poison")).unwrap_err();
        assert_eq!(stopped, Stopped::Panicked("poison".into()));
        assert_eq!(stopped.to_string(), "panic: poison");
    }

    #[test]
    fn cancellable_sleep_wakes_on_deadline() {
        silence_cancel_panics();
        let t = CancelToken::with_deadline(Duration::from_millis(30));
        let start = Instant::now();
        let err =
            std::panic::catch_unwind(|| t.cancellable_sleep(Duration::from_secs(60))).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not sleep 60s"
        );
        assert_eq!(
            cancelled_reason(err.as_ref()),
            Some(CancelReason::DeadlineExceeded)
        );
        // An uncancelled sleep completes normally.
        let free = CancelToken::new();
        free.cancellable_sleep(Duration::from_millis(1));
    }
}
