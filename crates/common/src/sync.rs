//! Panic-free synchronization helpers for serving paths.
//!
//! `Mutex::lock` only fails when another thread panicked while holding the
//! lock. For the panic-free serving paths (DESIGN.md §8), propagating
//! that poison as a second panic turns one failed worker into a process
//! crash. The protected state in this workspace (DFS blobs, segment
//! caches, task-slot tables) is updated atomically — a poisoned guard
//! still holds consistent data — so recovering the inner value is safe
//! and keeps the process serving.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `m`, recovering the guard if a previous holder panicked.
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv` until notified, recovering the guard on poison just like
/// [`lock_or_recover`].
pub fn wait_or_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

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
            done = wait_or_recover(cv, done);
        }
        waker.join().expect("waker thread");
    }
}
