//! Parallel primitives used throughout the parallel filtered-graph algorithms.
//!
//! This crate implements the primitives of Table I of *Parallel Filtered
//! Graphs for Hierarchical Clustering* (Yu & Shun, ICDE 2023):
//!
//! * [`par_filter`] — parallel filter preserving input order,
//! * [`par_sort_by`] / [`par_sort_unstable_by`] — parallel comparison sorts,
//! * [`par_max_index`] — parallel maximum,
//! * [`AtomicF64`] with [`AtomicF64::write_min`], [`AtomicF64::write_max`],
//!   and [`AtomicF64::write_add`] — the `WRITE_MIN` / `WRITE_MAX` /
//!   `WRITE_ADD` priority concurrent writes,
//! * [`PriorityCell`] — a keyed priority write cell used for the vertex
//!   assignment writes of Algorithm 4 (e.g. `WRITE_MAX(v.g, (χ, b))`).
//!
//! All parallel operations are built on rayon's fork–join API, which
//! matches the work–span model used in the paper. Under the offline shim
//! this means a persistent worker pool with lazily fused adapters (one
//! fork–join round per primitive call, no per-call thread spawning); with
//! registry rayon it is the randomized work-stealing scheduler — the
//! primitives are source-compatible with both.

pub mod allow;
pub mod atomic;
pub mod par;

pub use allow::{AllowEntry, AllowFile};
pub use atomic::{AtomicF64, PriorityCell};
pub use par::{par_filter, par_max_index, par_sort_by, par_sort_unstable_by};

/// Re-export of rayon so downstream crates can build thread pools for the
/// scalability experiments without an extra direct dependency.
/// `rayon::ThreadPool::install` scopes all parallel work of a closure —
/// including the primitives in this crate — onto a caller-owned pool.
pub use rayon;

/// Re-export of the shadow-write audit crate: [`SendPtr`] is the one
/// shared raw-pointer wrapper for disjoint-write parallel kernels, and
/// [`DisjointWriteAudit`] is the registry those kernels declare their
/// claimed ranges/cells to (checked under `--cfg pfg_racecheck`, zero-cost
/// otherwise). The types live in the dependency-free `pfg_audit` crate so
/// the rayon shim can use them too (this crate depends on the shim, so
/// they cannot be defined here), but downstream crates should reach them
/// through this re-export.
pub use pfg_audit::{DisjointWriteAudit, RangeClaim, SendPtr};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_reexports() {
        let v = vec![3_i64, 1, 4, 1, 5];
        let evens = par_filter(&v, |x| *x % 2 == 0);
        assert_eq!(evens, vec![4]);
        let cell = AtomicF64::new(0.0);
        cell.write_add(1.5);
        assert!((cell.load() - 1.5).abs() < 1e-12);
    }
}
