//! The workspace's one way to take a lock: poison recovery plus the flat
//! lock rule.
//!
//! `Mutex::lock` only fails when another thread panicked while holding the
//! lock. For the panic-free serving paths (DESIGN.md §8), propagating
//! that poison as a second panic turns one failed worker into a process
//! crash. The protected state in this workspace (DFS blobs, segment
//! caches, task-slot tables) is updated atomically — a poisoned guard
//! still holds consistent data — so recovering the inner value is safe
//! and keeps the process serving.
//!
//! **The flat lock rule** (DESIGN.md §14): no thread holds two workspace
//! locks at once, and none blocks — channel send or receive, thread join,
//! thread scope, blob IO — while holding one. Every workspace lock is
//! taken through [`lock_or_recover`], so in a debug build it checks the
//! rule: a thread-local slot remembers where this thread's held lock was
//! taken, and a second lock, or an [`assert_unlocked`] placed before a
//! blocking call, panics naming both sites. Release builds compile the
//! check out, and [`Guard`] is then a plain newtype over `MutexGuard`.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A held workspace lock. In debug builds it also carries the mark that
/// this thread holds a lock, cleared when the guard drops (unwinding
/// included, so a caught panic leaves no stale mark).
///
/// `Guard` has no `Drop` of its own, so [`wait_or_recover`] can take it
/// apart, wait, and rebuild it around the same mark.
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: held::Token,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Acquire `m`, recovering the guard if a previous holder panicked. In a
/// debug build, panics if this thread already holds a lock.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the one raw lock site: every workspace lock is checked here"
)]
pub fn lock_or_recover<T>(m: &Mutex<T>) -> Guard<'_, T> {
    // Marked before locking: re-entering the same mutex would deadlock
    // instead of reporting.
    #[cfg(debug_assertions)]
    let held = held::Token::mark(std::panic::Location::caller());
    Guard {
        inner: m.lock().unwrap_or_else(PoisonError::into_inner),
        #[cfg(debug_assertions)]
        held,
    }
}

/// Block on `cv` until notified, recovering the guard on poison just like
/// [`lock_or_recover`]. The thread's mark stays set across the wait: the
/// lock is released only while the thread is parked.
pub fn wait_or_recover<'a, T>(cv: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T> {
    let Guard {
        inner,
        #[cfg(debug_assertions)]
        held,
    } = guard;
    Guard {
        inner: cv.wait(inner).unwrap_or_else(PoisonError::into_inner),
        #[cfg(debug_assertions)]
        held,
    }
}

/// Call before anything that can block indefinitely. In a debug build,
/// panics if this thread holds a lock, naming both sites; in a release
/// build it does nothing.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    held::check("blocking call", std::panic::Location::caller());
}

/// The debug-build half of the rule: one slot per thread, because the
/// rule is flat.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;
    use std::panic::Location;

    thread_local! {
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    /// Panic if this thread holds a lock. Not while the thread unwinds:
    /// a `Drop` that locks would turn the first panic into an abort.
    pub(super) fn check(what: &str, site: &'static Location<'static>) {
        if let Some(held) = HELD.get().filter(|_| !std::thread::panicking()) {
            panic!(
                "flat lock rule: {what} at {site} while this thread holds the lock taken at {held}"
            );
        }
    }

    /// This thread's mark; dropping it clears the slot.
    pub(super) struct Token;

    impl Token {
        pub(super) fn mark(site: &'static Location<'static>) -> Token {
            check("lock", site);
            HELD.set(Some(site));
            Token
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.set(None);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the poison test needs a raw lock to poison the mutex"
)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// The message of the panic `f` raises, if it raises one.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    #[test]
    fn lock_recovers_after_poison() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("first lock");
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        let mut g = lock_or_recover(&m);
        *g += 1;
        assert_eq!(*g, 42);
        drop(g);

        // A panic caught while this thread holds a checked guard poisons
        // the mutex but leaves no stale mark: the same thread can lock
        // again, this mutex and any other. A `Drop` that locks while the
        // guard unwinds is not checked, so the panic does not abort.
        struct LocksOnDrop;
        impl Drop for LocksOnDrop {
            fn drop(&mut self) {
                drop(lock_or_recover(&Mutex::new(())));
            }
        }
        let caught = std::panic::catch_unwind(|| {
            let _g = lock_or_recover(&m);
            let _d = LocksOnDrop;
            panic!("unwind while holding the guard");
        });
        assert!(caught.is_err());
        assert_eq!(*lock_or_recover(&m), 42);
        assert_eq!(*lock_or_recover(&Mutex::new(7)), 7);
    }

    #[test]
    fn wait_returns_after_notify() {
        use std::sync::Condvar;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *lock_or_recover(m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = lock_or_recover(m);
        while !*done {
            // Waiting on the guard's own lock is not a blocking call
            // under a held lock: the wait releases it.
            done = wait_or_recover(cv, done);
        }
        // The rebuilt guard still marks the thread.
        #[cfg(debug_assertions)]
        assert!(panic_message(|| drop(lock_or_recover(&Mutex::new(0)))).is_some());
        drop(done);
        waker.join().expect("waker thread");
        assert!(*lock_or_recover(m));
    }

    /// A second lock, in either order, and a blocking call under a held
    /// lock each panic naming both sites; a lock dropped before the next
    /// call passes.
    #[cfg(debug_assertions)]
    #[test]
    fn violations_panic_naming_both_sites() {
        /// What fires, the lock held first, the call made under it, and
        /// the call's line.
        type Case<'a> = (&'a str, &'a Mutex<i32>, &'a dyn Fn(), u32);
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let cases: [Case; 3] = [
            ("lock", &a, &|| drop(lock_or_recover(&b)), line!()),
            ("lock", &b, &|| drop(lock_or_recover(&a)), line!()),
            ("blocking call", &a, &|| assert_unlocked(), line!()),
        ];
        for (what, first, then, line) in cases {
            let held = line!() + 2;
            let msg = panic_message(|| {
                let _held = lock_or_recover(first);
                then();
            })
            .expect("a violation panics");
            assert!(
                msg.starts_with(&format!("flat lock rule: {what} at ")),
                "{msg}"
            );
            for line in [line, held] {
                assert!(msg.contains(&format!("sync.rs:{line}:")), "{msg}");
            }
            // Scoped: the first guard is gone before the next call.
            let scoped = panic_message(|| {
                drop(lock_or_recover(first));
                then();
            });
            assert_eq!(scoped, None);
        }
    }

    /// Release builds compile the rule out.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_do_not_check() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let g = lock_or_recover(&a);
        assert_unlocked();
        assert_eq!(*g + *lock_or_recover(&b), 3);
    }
}
