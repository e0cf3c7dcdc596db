//! The mutable-corpus delta layer: the S-side memtable a
//! [`crate::PreparedJoin`] accumulates inserts and deletes in.
//!
//! The prepared index (`prepare` builds it for PGBJ and PBJ only: the
//! Voronoi cells of `S` and their summaries) is batch-built and does not
//! absorb a mutation in place.  Instead of rebuilding on every change, the
//! prepared join follows the log-structured discipline of LSM stores:
//! mutations land in a small resident [`DeltaOverlay`] — the added points
//! plus the ids of the deleted ones, stored the way a probe scans them — and
//! every probe merges the overlay with the frozen cells through the shared
//! top-k accumulator.  When the overlay outgrows the plan's
//! `delta_threshold`, a *compaction* folds it into the frozen cells
//! (rebuilding only the affected cells and their summaries) and publishes a
//! new epoch with an empty overlay.
//!
//! The correctness bar is DBSP-style: a query against the mutated corpus
//! must be distance-identical to the same query against a cold build over
//! the materialized corpus (frozen minus tombstones, plus adds).  The frozen
//! rows live only in the family structure; the epoch indexes them by one
//! ascending run of ids.  The overlay maintains one invariant that makes the
//! live corpus a disjoint union: an added id is never simultaneously live on
//! the frozen side (re-inserting a frozen id tombstones the frozen copy
//! first), so
//!
//! ```text
//! live = (frozen \ tombstones) ∪ adds        |live| = |frozen ids| − t + a
//! ```
//!
//! Epoch/snapshot semantics, the mutation API and compaction live in
//! [`crate::prepared`]; this module owns the overlay itself and the
//! observability types.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use geom::PointId;

/// The resident S-delta memtable: points added since the last compaction
/// (re-inserts are upserts) plus the tombstoned frozen ids — three flat
/// arrays in the order every probe reads them, so a probe scans the overlay
/// in place: the added ids ascending, their coordinates as parallel
/// row-major rows (one tile-kernel call per run of rows), the tombstoned ids
/// as one ascending run (masking a candidate is a binary search over
/// contiguous memory).  An empty overlay is zero add rows and no mask; no
/// probe treats it specially.
///
/// The overlay is an immutable snapshot from a reader's point of view:
/// mutations clone the three arrays, apply the change and publish the copy
/// under a new epoch, so in-flight queries keep scanning the overlay they
/// started with.  The ascending orders are deterministic, which keeps the
/// delta-probe counters reproducible for the bench harness.
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    /// Added (or re-inserted) ids, ascending.
    add_ids: Vec<PointId>,
    /// Their coordinates: row `i` belongs to `add_ids[i]`.
    add_rows: Vec<f64>,
    /// Frozen ids masked from every probe until compaction drops them,
    /// ascending.
    tombstones: Vec<PointId>,
}

/// The overlay of a corpus nothing was added to or deleted from: what the
/// cold reducers hand the scans they share with the prepared probes.
pub(crate) static NO_DELTA: DeltaOverlay = DeltaOverlay {
    add_ids: Vec::new(),
    add_rows: Vec::new(),
    tombstones: Vec::new(),
};

impl DeltaOverlay {
    /// Whether the overlay holds no pending work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending delta entries (adds plus tombstones) — the quantity compared
    /// against the plan's `delta_threshold`.
    pub fn len(&self) -> usize {
        self.add_ids.len() + self.tombstones.len()
    }

    /// Number of added points pending.
    pub fn adds_len(&self) -> usize {
        self.add_ids.len()
    }

    /// Number of tombstoned frozen ids pending.
    pub fn tombstones_len(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether `id`'s frozen copy is masked.
    #[inline]
    pub fn is_tombstoned(&self, id: PointId) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// The added points in ascending id order.
    pub fn adds(&self) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        // Zero-dimensional adds have no coordinates to chunk: every row is
        // the empty slice.
        let mut rows = self.add_rows.chunks_exact(self.dims().max(1));
        let ids = self.add_ids.iter();
        ids.map(move |id| (*id, rows.next().unwrap_or_default()))
    }

    /// The added ids, ascending.
    pub(crate) fn add_ids(&self) -> &[PointId] {
        &self.add_ids
    }

    /// The added coordinates, row-major, parallel to [`Self::add_ids`].
    pub(crate) fn add_rows(&self) -> &[f64] {
        &self.add_rows
    }

    /// The tombstoned ids in ascending order.
    pub fn tombstones(&self) -> &[PointId] {
        &self.tombstones
    }

    /// Coordinates per added row (0 while nothing is added).
    fn dims(&self) -> usize {
        self.add_rows
            .len()
            .checked_div(self.add_ids.len())
            .unwrap_or(0)
    }

    /// Adds (or replaces) an added point.
    pub(crate) fn insert_add(&mut self, id: PointId, coords: &[f64]) {
        let dims = coords.len();
        let (at, replaced) = match self.add_ids.binary_search(&id) {
            Ok(at) => (at, 1),
            Err(at) => {
                self.add_ids.insert(at, id);
                (at, 0)
            }
        };
        let row = at * dims..(at + replaced) * dims;
        self.add_rows.splice(row, coords.iter().copied());
    }

    /// Removes an added point, reporting whether it was present.
    pub(crate) fn remove_add(&mut self, id: PointId) -> bool {
        let Ok(at) = self.add_ids.binary_search(&id) else {
            return false;
        };
        let dims = self.dims();
        self.add_ids.remove(at);
        self.add_rows.drain(at * dims..(at + 1) * dims);
        true
    }

    /// Tombstones a frozen id, reporting whether it was newly tombstoned.
    /// Tombstones are only ever cleared by compaction.
    pub(crate) fn tombstone(&mut self, id: PointId) -> bool {
        match self.tombstones.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.tombstones.insert(at, id);
                true
            }
        }
    }

    /// The ids live once the overlay is folded into `frozen_ids`, ascending
    /// like them: one linear merge of the frozen run, minus the tombstones,
    /// with the adds.
    pub(crate) fn live_ids(&self, frozen_ids: &[PointId]) -> Vec<PointId> {
        // Every tombstone names a frozen id, so one walk drops them all.
        let mut dead = self.tombstones.iter().peekable();
        let mut adds = self.add_ids.as_slice();
        let mut ids = Vec::with_capacity(frozen_ids.len() + self.adds_len());
        for &id in frozen_ids.iter().filter(|id| dead.next_if_eq(id).is_none()) {
            while let Some((&add, rest)) = adds.split_first().filter(|(&add, _)| add < id) {
                ids.push(add);
                adds = rest;
            }
            ids.push(id);
        }
        ids.extend_from_slice(adds);
        ids
    }

    /// Structural invariant audit, asserted on every mutation commit under
    /// `cfg(test)` and the `debug-invariants` feature:
    ///
    /// 1. an added id never duplicates a *live* frozen id (re-inserting a
    ///    frozen id must tombstone the frozen copy first, or `live_len`
    ///    arithmetic and probe masking both break),
    /// 2. tombstones only name frozen ids (a tombstone for a never-frozen id
    ///    would make `|frozen ids| − t + a` undercount the live corpus), and
    /// 3. both id runs strictly ascend, with one coordinate row per add (the
    ///    binary searches and the parallel rows rest on it).
    ///
    /// `frozen_ids` ascends, as the epoch stores it.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit(&self, frozen_ids: &[PointId]) {
        let frozen = |id: &PointId| frozen_ids.binary_search(id).is_ok();
        for id in &self.add_ids {
            assert!(
                !frozen(id) || self.is_tombstoned(*id),
                "delta invariant violated: add {id} duplicates a live frozen id \
                 (frozen copy not tombstoned)"
            );
        }
        for id in &self.tombstones {
            assert!(
                frozen(id),
                "delta invariant violated: tombstone {id} names an id absent \
                 from the frozen corpus"
            );
        }
        let ascends = |ids: &[PointId]| ids.is_sorted_by(|a, b| a < b);
        assert!(
            ascends(&self.add_ids)
                && ascends(&self.tombstones)
                && self.add_rows.len() == self.dims() * self.add_ids.len(),
            "delta invariant violated: an id run does not ascend, or rows and ids disagree"
        );
    }
}

/// A snapshot of a [`crate::PreparedJoin`]'s delta layer, for observability
/// (the mutable-corpus bench and example print these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Current corpus epoch (0 at build; every mutation and compaction
    /// advances it).
    pub epoch: u64,
    /// Added points pending in the overlay.
    pub pending_adds: usize,
    /// Tombstoned frozen ids pending in the overlay.
    pub pending_tombstones: usize,
    /// Compactions run since the join was prepared.
    pub compactions: u64,
    /// Points re-laid-out into frozen structures by those compactions.
    pub compacted_points: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn overlay_tracks_adds_and_tombstones_independently() {
        let mut d = DeltaOverlay::default();
        assert!(d.is_empty() && NO_DELTA.is_empty());
        d.insert_add(7, &[1.0, 2.0]);
        d.insert_add(3, &[0.0, 0.0]);
        d.tombstone(9);
        assert_eq!(d.len(), 3);
        assert_eq!((d.adds_len(), d.tombstones_len()), (2, 1));
        assert!(d.is_tombstoned(9) && !d.is_tombstoned(7));
        // Deterministic ascending-id iteration, rows parallel to ids.
        assert_eq!(d.add_ids(), [3, 7]);
        assert_eq!(d.add_rows(), [0.0, 0.0, 1.0, 2.0]);
        // Upsert replaces in place.
        d.insert_add(7, &[5.0, 5.0]);
        let adds: Vec<_> = d.adds().collect();
        assert_eq!(adds, [(3, &[0.0, 0.0][..]), (7, &[5.0, 5.0][..])]);
        assert!(d.remove_add(7));
        assert!(!d.remove_add(7));
        assert_eq!(d.add_rows(), [0.0, 0.0]);
        // Tombstoning twice reports only the first as new.
        assert!(!d.tombstone(9));
        assert!(d.tombstone(10));
        // A point without coordinates is still a point.
        let mut flat = DeltaOverlay::default();
        flat.insert_add(2, &[]);
        flat.insert_add(1, &[]);
        assert_eq!(
            flat.adds().collect::<Vec<_>>(),
            [(1, &[][..]), (2, &[][..])]
        );
    }

    proptest! {
        /// Any insert / upsert / delete / remove-then-add sequence leaves the
        /// three arrays saying what a `BTreeMap` + `BTreeSet` model says —
        /// the representation they replaced — with both id runs ascending
        /// (`audit`) and `live_ids` folding them into the frozen run as the
        /// model does, after every step.  Ids below 20 are frozen; a mutation
        /// is classified as `PreparedJoin::insert` / `delete` classify it.
        #[test]
        fn flat_overlay_replays_the_map_and_set_model(
            ops in collection::vec(0u64..120, 1..160),
            xs in collection::vec(-9.0f64..9.0, 160),
        ) {
            let frozen: Vec<PointId> = (0..20).collect();
            let mut overlay = DeltaOverlay::default();
            let mut adds: BTreeMap<PointId, Vec<f64>> = BTreeMap::new();
            let mut tombstones: BTreeSet<PointId> = BTreeSet::new();
            for (step, (draw, x)) in ops.into_iter().zip(xs).enumerate() {
                // Forty ids, three ops each; two of the three insert.
                let (id, op) = (draw / 3, draw % 3);
                if op < 2 {
                    // Insert or upsert; over a frozen id the copy is masked.
                    let coords = vec![x, id as f64, step as f64];
                    if frozen.contains(&id) {
                        prop_assert_eq!(overlay.tombstone(id), tombstones.insert(id));
                    }
                    overlay.insert_add(id, &coords);
                    adds.insert(id, coords);
                } else {
                    prop_assert_eq!(overlay.remove_add(id), adds.remove(&id).is_some());
                    if frozen.contains(&id) {
                        prop_assert_eq!(overlay.tombstone(id), tombstones.insert(id));
                    }
                }
                overlay.audit(&frozen);
                let model: Vec<(PointId, &[f64])> =
                    adds.iter().map(|(id, c)| (*id, c.as_slice())).collect();
                prop_assert_eq!(overlay.adds().collect::<Vec<_>>(), model);
                prop_assert_eq!(overlay.add_ids().to_vec(), adds.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(overlay.add_rows().len(), 3 * adds.len());
                prop_assert_eq!(overlay.tombstones().to_vec(), tombstones.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(overlay.len(), adds.len() + tombstones.len());
                prop_assert_eq!(overlay.is_empty(), adds.is_empty() && tombstones.is_empty());
                for id in 0..40 {
                    prop_assert_eq!(overlay.is_tombstoned(id), tombstones.contains(&id));
                }
                let live: BTreeSet<PointId> =
                    frozen.iter().filter(|id| !tombstones.contains(id)).chain(adds.keys()).copied().collect();
                prop_assert_eq!(overlay.live_ids(&frozen), live.into_iter().collect::<Vec<_>>());
            }
        }
    }
}
