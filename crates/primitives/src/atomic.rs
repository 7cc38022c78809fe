//! Priority concurrent writes (`WRITE_MIN`, `WRITE_MAX`).
//!
//! The paper assumes constant-work priority concurrent writes (Table I).
//! [`PriorityCell`] provides them for `(key, payload)` pairs (used for
//! vertex assignments, where the payload is the bubble identifier), backed
//! by a short-critical-section `std` mutex.

use std::sync::Mutex;

/// A keyed priority-write cell holding a `(key, payload)` pair.
///
/// Used for Algorithm 4's assignment writes: many threads race to write
/// `(score, bubble)` and the pair with the extremal score wins. Ties on the
/// key are broken towards the smaller payload so that results are
/// deterministic regardless of scheduling.
#[derive(Debug)]
pub struct PriorityCell {
    inner: Mutex<(f64, usize)>,
}

impl PriorityCell {
    /// Creates a cell initialised to `(key, payload)`.
    pub fn new(key: f64, payload: usize) -> Self {
        Self {
            inner: Mutex::new((key, payload)),
        }
    }

    /// A cell that any `write_max` will beat.
    pub fn neg_infinity() -> Self {
        Self::new(f64::NEG_INFINITY, usize::MAX)
    }

    /// A cell that any `write_min` will beat.
    pub fn infinity() -> Self {
        Self::new(f64::INFINITY, usize::MAX)
    }

    /// Returns the current `(key, payload)` pair.
    pub fn load(&self) -> (f64, usize) {
        *self.inner.lock().expect("PriorityCell lock poisoned")
    }

    /// Unconditionally stores `(key, payload)`.
    pub fn store(&self, key: f64, payload: usize) {
        *self.inner.lock().expect("PriorityCell lock poisoned") = (key, payload);
    }

    /// `WRITE_MAX` on the key; ties broken towards the smaller payload.
    /// Returns `true` if the write won.
    pub fn write_max(&self, key: f64, payload: usize) -> bool {
        if key.is_nan() {
            return false;
        }
        let mut guard = self.inner.lock().expect("PriorityCell lock poisoned");
        if key > guard.0 || (key == guard.0 && payload < guard.1) {
            *guard = (key, payload);
            true
        } else {
            false
        }
    }

    /// `WRITE_MIN` on the key; ties broken towards the smaller payload.
    /// Returns `true` if the write won.
    pub fn write_min(&self, key: f64, payload: usize) -> bool {
        if key.is_nan() {
            return false;
        }
        let mut guard = self.inner.lock().expect("PriorityCell lock poisoned");
        if key < guard.0 || (key == guard.0 && payload < guard.1) {
            *guard = (key, payload);
            true
        } else {
            false
        }
    }
}

impl Default for PriorityCell {
    fn default() -> Self {
        Self::neg_infinity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn priority_cell_tie_breaks_to_smaller_payload() {
        let cell = PriorityCell::neg_infinity();
        assert!(cell.write_max(1.0, 7));
        assert!(cell.write_max(1.0, 3));
        assert!(!cell.write_max(1.0, 9));
        assert_eq!(cell.load(), (1.0, 3));
    }

    #[test]
    fn priority_cell_concurrent_min_is_deterministic() {
        let cell = PriorityCell::infinity();
        (0..4_096usize).into_par_iter().for_each(|i| {
            cell.write_min((i % 64) as f64, i);
        });
        // The minimum key is 0.0 and the smallest payload with key 0 is 0.
        assert_eq!(cell.load(), (0.0, 0));
    }
}
