//! Offline stand-in for `parking_lot` 0.12 (see `benchmark/README.md`,
//! "Building offline"): non-poisoning wrappers over the std locks. Only
//! `sstore-transport` uses them, and the benchmark never runs that crate.

use std::sync::{self, PoisonError};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// `std::sync::Mutex` whose `lock` ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
    /// Acquires the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::RwLock` whose guards ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }
    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
