//! Named, order-checked, poison-recovering locks.
//!
//! Every long-lived lock in the workspace is a [`Named<T>`] or
//! [`NamedRw<T>`]: the type owns the `Mutex`/`RwLock` together with the
//! name it is declared under, and its only accessors are
//! [`Named::lock`], [`NamedRw::read`] and [`NamedRw::write`]. The
//! declared order lives in `docs/lock_order.md`, embedded here via
//! `include_str!` so the documentation and the runtime checker cannot
//! diverge — editing the table *is* editing the checker.
//!
//! In `debug_assertions` builds a thread-local stack of held ranks panics
//! on any acquisition that is undeclared or not strictly above every lock
//! already held by the thread. Release builds compile the bookkeeping out
//! and only keep poison recovery: a panic while holding a lock must not
//! cascade `PoisonError` panics into unrelated sessions or tests.
//!
//! The static half of this contract is `snapshot_lint`'s `lock_order`
//! rule: this file is the only non-test code that may name `Mutex` or
//! `RwLock`, and the constructors' name literals and the table's rows
//! must match one to one.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The declared-order document; the markdown table in it is parsed by
/// [`declared_ranks`].
pub const LOCK_ORDER_DOC: &str = include_str!("../../../docs/lock_order.md");

/// Name → rank for every declared lock, parsed from the markdown table in
/// `docs/lock_order.md` (rows of the form `| 3 | \`name\` | ... |`).
pub fn declared_ranks() -> &'static BTreeMap<&'static str, usize> {
    static RANKS: OnceLock<BTreeMap<&'static str, usize>> = OnceLock::new();
    RANKS.get_or_init(|| parse_ranks(LOCK_ORDER_DOC))
}

fn parse_ranks(doc: &str) -> BTreeMap<&str, usize> {
    let mut ranks = BTreeMap::new();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| 3 | `name` | ... |` splits into ["", "3", "`name`", ..., ""].
        let (Some(rank), Some(name)) = (cells.get(1), cells.get(2)) else {
            continue;
        };
        let Ok(rank) = rank.parse::<usize>() else {
            continue; // header and separator rows
        };
        ranks.insert(name.trim_matches('`'), rank);
    }
    ranks
}

#[cfg(debug_assertions)]
mod tracker {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(usize, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(name: &'static str) {
        let Some(&rank) = super::declared_ranks().get(name) else {
            panic!("lock `{name}` is not declared in docs/lock_order.md");
        };
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.iter().max_by_key(|&&(rank, _)| rank) {
                assert!(
                    rank > top_rank,
                    "lock order violation: acquiring `{name}` (rank {rank}) \
                     while holding `{top_name}` (rank {top_rank}); \
                     see docs/lock_order.md"
                );
            }
            held.push((rank, name));
        });
    }

    pub(super) fn release(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(_, n)| n == name) {
                held.remove(pos);
            }
        });
    }
}

macro_rules! guard_type {
    ($(#[$doc:meta])* $name:ident, $inner:ident, $($mutable:tt)?) => {
        $(#[$doc])*
        pub struct $name<'a, T: ?Sized> {
            inner: $inner<'a, T>,
            #[cfg(debug_assertions)]
            name: &'static str,
        }

        impl<T: ?Sized> Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        $(guard_type!(@$mutable $name);)?

        impl<T: ?Sized> Drop for $name<'_, T> {
            fn drop(&mut self) {
                #[cfg(debug_assertions)]
                tracker::release(self.name);
            }
        }
    };
    (@mut $name:ident) => {
        impl<T: ?Sized> DerefMut for $name<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                &mut self.inner
            }
        }
    };
}

guard_type!(
    /// RAII guard for [`Named::lock`]; derefs to the protected value.
    LockGuard, MutexGuard, mut
);
guard_type!(
    /// RAII guard for [`NamedRw::read`]; derefs to the protected value.
    ReadGuard, RwLockReadGuard,
);
guard_type!(
    /// RAII guard for [`NamedRw::write`]; derefs to the protected value.
    WriteGuard, RwLockWriteGuard, mut
);

/// A `Mutex` that owns its declared name: the only way in is [`Named::lock`].
///
/// ```
/// let cell = snapshot_obs::lock::Named::new("txn.commit", 0u32);
/// *cell.lock() += 1;
/// assert_eq!(*cell.lock(), 1);
/// ```
///
/// The raw mutex is private to this module, so no other code can reach
/// `std`'s poisoning `.lock()` or pair the name with a different cell:
///
/// ```compile_fail,E0616
/// let cell = snapshot_obs::lock::Named::new("txn.commit", 0u32);
/// let _raw = cell.inner.lock(); // field `inner` of `Named` is private
/// ```
#[derive(Debug)]
pub struct Named<T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> Named<T> {
    /// Wraps `value` as the lock declared under `name` in
    /// `docs/lock_order.md`.
    pub const fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Named {
            #[cfg(debug_assertions)]
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poison.
    ///
    /// Panics in debug builds if the name is undeclared or any lock of
    /// equal or higher rank is already held by this thread.
    pub fn lock(&self) -> LockGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(self.name);
        LockGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            name: self.name,
        }
    }
}

/// An `RwLock` that owns its declared name; see [`Named`].
#[derive(Debug)]
pub struct NamedRw<T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> NamedRw<T> {
    /// Wraps `value` as the lock declared under `name` in
    /// `docs/lock_order.md`.
    pub const fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        NamedRw {
            #[cfg(debug_assertions)]
            name,
            inner: RwLock::new(value),
        }
    }

    /// Acquires the lock for reading; same contract as [`Named::lock`].
    pub fn read(&self) -> ReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(self.name);
        ReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            name: self.name,
        }
    }

    /// Acquires the lock for writing; same contract as [`Named::lock`].
    pub fn write(&self) -> WriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(self.name);
        WriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_parse_from_the_doc() {
        let ranks = declared_ranks();
        assert_eq!(ranks.get("txn.commit"), Some(&1));
        assert_eq!(ranks.get("obs.metrics"), Some(&11));
        assert_eq!(ranks.len(), 11, "expected the full table, got {ranks:?}");
        let mut seen = std::collections::BTreeSet::new();
        for (&name, &rank) in ranks {
            assert!(seen.insert(rank), "duplicate rank {rank} at `{name}`");
        }
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Named::new("obs.metrics", 7u32));
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison it");
        })
        .join();
        assert!(m.inner.is_poisoned());
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn in_order_nesting_is_allowed() {
        let outer = Named::new("txn.commit", ());
        let inner = NamedRw::new("txn.state", ());
        let _a = outer.lock();
        let _b = inner.read();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_nesting_panics() {
        let result = std::thread::spawn(|| {
            let outer = NamedRw::new("obs.metrics", ());
            let inner = Named::new("txn.commit", ());
            let _a = outer.write();
            let _b = inner.lock();
        })
        .join();
        assert!(result.is_err(), "rank 1 after rank 11 must panic");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn undeclared_lock_panics() {
        let result = std::thread::spawn(|| {
            let m = Named::new("nope.not_declared", ());
            let _g = m.lock();
        })
        .join();
        assert!(result.is_err(), "undeclared lock name must panic");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn release_reopens_the_rank_window() {
        let a = Named::new("obs.slowlog", ());
        let b = Named::new("server.conns", ());
        {
            let _g = a.lock();
        }
        // slowlog (8) released: taking server.conns (4) afterwards is legal.
        let _g = b.lock();
    }
}
