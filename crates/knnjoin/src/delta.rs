//! The mutable-corpus delta layer: the S-side memtable a
//! [`crate::PreparedJoin`] accumulates inserts and deletes in.
//!
//! The prepared index (`prepare` builds it for PGBJ and PBJ only: the
//! Voronoi cells of `S` and their summaries) is batch-built and does not
//! absorb a mutation in place.  Instead of rebuilding on every change, the
//! prepared join follows the log-structured discipline of LSM stores:
//! mutations land in a small resident [`DeltaOverlay`] — the added points,
//! column-major like every block a scan ranks, plus the ids of the deleted
//! ones — and
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

use crate::exact::{splice_into, FlatBlock};
use geom::PointId;

/// The resident S-delta memtable: points added since the last compaction
/// (re-inserts are upserts) plus the tombstoned frozen ids, in the order and
/// layout every probe reads them, so a probe scans the overlay in place: the
/// adds as one `FlatBlock` — ids ascending, coordinates column-major like
/// every other block a scan ranks — and the tombstoned ids as one ascending
/// run (masking a candidate is a binary search over contiguous memory).  An
/// empty overlay is zero add rows and no mask; no probe treats it
/// specially.
///
/// The overlay is an immutable snapshot from a reader's point of view: a
/// mutation lays the next overlay out from this one in one pass
/// (`after_insert`, `after_delete`) and publishes it under a
/// new epoch, so in-flight queries keep scanning the overlay they started
/// with.  The ascending orders are deterministic, which keeps the
/// delta-probe counters reproducible for the bench harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaOverlay {
    /// Added (or re-inserted) points, ids ascending.
    adds: FlatBlock,
    /// Frozen ids masked from every probe until compaction drops them,
    /// ascending.
    tombstones: Vec<PointId>,
}

/// The overlay of a corpus nothing was added to or deleted from: what the
/// cold reducers hand the scans they share with the prepared probes.
pub(crate) static NO_DELTA: DeltaOverlay = DeltaOverlay {
    adds: FlatBlock::EMPTY,
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
        self.adds.len() + self.tombstones.len()
    }

    /// Number of added points pending.
    pub fn adds_len(&self) -> usize {
        self.adds.len()
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

    /// The added points in ascending id order, each row gathered from the
    /// columns.
    pub fn adds(&self) -> impl Iterator<Item = (PointId, Vec<f64>)> + '_ {
        let ids = self.adds.ids().iter();
        ids.enumerate().map(|(i, id)| (*id, self.adds.row(i)))
    }

    /// The added points as the block a probe ranks.
    pub(crate) fn add_block(&self) -> &FlatBlock {
        &self.adds
    }

    /// The tombstoned ids in ascending order.
    pub fn tombstones(&self) -> &[PointId] {
        &self.tombstones
    }

    /// The overlay after `id` is inserted at `coords`: added (replacing a
    /// pending add of `id`), and tombstoned too when it is `frozen`, so its
    /// frozen copy is masked.  Every array is laid out once, from `self`,
    /// which in-flight probes may still be scanning.
    pub(crate) fn after_insert(&self, id: PointId, coords: &[f64], frozen: bool) -> Self {
        let cut = match self.adds.ids().binary_search(&id) {
            Ok(at) => at..at + 1,
            Err(at) => at..at,
        };
        Self {
            adds: self.adds.spliced(cut, Some((id, coords))),
            tombstones: self
                .tombstoned(id, frozen)
                .unwrap_or_else(|| self.tombstones.clone()),
        }
    }

    /// The overlay after `id` is deleted: a pending add of `id` dropped, and
    /// `id` tombstoned when it is `frozen`, laid out as
    /// [`Self::after_insert`] lays it out.  `None` when that changes nothing,
    /// as for an id that is not live.
    pub(crate) fn after_delete(&self, id: PointId, frozen: bool) -> Option<Self> {
        let add = self.adds.ids().binary_search(&id).ok();
        let tombstones = self.tombstoned(id, frozen);
        if add.is_none() && tombstones.is_none() {
            return None;
        }
        Some(Self {
            adds: add.map_or_else(
                || self.adds.clone(),
                |at| self.adds.spliced(at..at + 1, None),
            ),
            tombstones: tombstones.unwrap_or_else(|| self.tombstones.clone()),
        })
    }

    /// The tombstones with `id` added, if it is `frozen` and not yet among
    /// them.
    fn tombstoned(&self, id: PointId, frozen: bool) -> Option<Vec<PointId>> {
        let at = self
            .tombstones
            .binary_search(&id)
            .err()
            .filter(|_| frozen)?;
        let mut tombstones = Vec::with_capacity(self.tombstones.len() + 1);
        splice_into(&mut tombstones, &self.tombstones, at..at, Some(id));
        Some(tombstones)
    }

    /// The ids live once the overlay is folded into `frozen_ids`, ascending
    /// like them: one linear merge of the frozen run, minus the tombstones,
    /// with the adds.
    pub(crate) fn live_ids(&self, frozen_ids: &[PointId]) -> Vec<PointId> {
        // Every tombstone names a frozen id, so one walk drops them all.
        let mut dead = self.tombstones.iter().peekable();
        let mut adds = self.adds.ids();
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
    /// 3. both id runs strictly ascend (the binary searches rest on it).
    ///
    /// `frozen_ids` ascends, as the epoch stores it.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit(&self, frozen_ids: &[PointId]) {
        let frozen = |id: &PointId| frozen_ids.binary_search(id).is_ok();
        for id in self.adds.ids() {
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
            ascends(self.adds.ids()) && ascends(&self.tombstones),
            "delta invariant violated: an id run does not ascend"
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
        let empty = DeltaOverlay::default();
        assert!(empty.is_empty() && NO_DELTA.is_empty());
        let d = empty.after_insert(7, &[1.0, 2.0], false);
        let d = d.after_insert(3, &[0.0, 0.0], false);
        let d = d.after_delete(9, true).expect("a frozen id is tombstoned");
        assert_eq!(d.len(), 3);
        assert_eq!((d.adds_len(), d.tombstones_len()), (2, 1));
        assert!(d.is_tombstoned(9) && !d.is_tombstoned(7));
        // Deterministic ascending-id iteration; the coordinates are stored
        // one column per dimension.
        assert_eq!(d.add_block().ids(), [3, 7]);
        assert_eq!(
            (d.add_block().column(0), d.add_block().column(1)),
            (&[0.0, 1.0][..], &[0.0, 2.0][..])
        );
        // Upsert replaces in place.
        let d = d.after_insert(7, &[5.0, 5.0], false);
        let adds: Vec<_> = d.adds().collect();
        assert_eq!(adds, [(3, vec![0.0, 0.0]), (7, vec![5.0, 5.0])]);
        let d = d.after_delete(7, false).expect("a pending add is dropped");
        assert!(d.after_delete(7, false).is_none());
        assert_eq!(d.adds().collect::<Vec<_>>(), [(3, vec![0.0, 0.0])]);
        // Tombstoning twice changes nothing the second time.
        assert!(d.after_delete(9, true).is_none());
        assert_eq!(
            d.after_delete(10, true).map(|d| d.tombstones_len()),
            Some(2)
        );
        // An upsert over a frozen id masks its frozen copy once.
        let upserted = d.after_insert(9, &[4.0, 4.0], true);
        assert_eq!((upserted.adds_len(), upserted.tombstones()), (2, &[9][..]));
        // A point without coordinates is still a point.
        let flat = empty
            .after_insert(2, &[], false)
            .after_insert(1, &[], false);
        assert_eq!(flat.adds().collect::<Vec<_>>(), [(1, vec![]), (2, vec![])]);
    }

    proptest! {
        /// Any insert / upsert / delete / remove-then-add sequence leaves the
        /// overlay saying what a `BTreeMap` + `BTreeSet` model says — the
        /// representation it replaced — coordinate for coordinate, with both
        /// id runs ascending (`audit`) and `live_ids` folding them into the
        /// frozen run as the model does, after every step; and every step
        /// leaves the overlay it started from as it was.  Ids below 20 are
        /// frozen; a mutation is classified as `PreparedJoin::insert` /
        /// `delete` classify it.
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
                let is_frozen = frozen.contains(&id);
                let published = overlay.clone();
                let next = if op < 2 {
                    // Insert or upsert; over a frozen id the copy is masked.
                    let coords = vec![x, id as f64, step as f64];
                    let next = overlay.after_insert(id, &coords, is_frozen);
                    if is_frozen {
                        tombstones.insert(id);
                    }
                    adds.insert(id, coords);
                    Some(next)
                } else {
                    let removed = adds.remove(&id).is_some();
                    let masked = is_frozen && tombstones.insert(id);
                    let next = overlay.after_delete(id, is_frozen);
                    prop_assert_eq!(next.is_some(), removed || masked);
                    next
                };
                // The overlay a mutation starts from is what readers still
                // scan: it must come out as it went in.
                prop_assert_eq!(&overlay, &published);
                overlay = next.unwrap_or(published);
                overlay.audit(&frozen);
                prop_assert_eq!(overlay.adds().collect::<Vec<_>>(), adds.clone().into_iter().collect::<Vec<_>>());
                prop_assert_eq!(overlay.add_block().ids().to_vec(), adds.keys().copied().collect::<Vec<_>>());
                for d in 0..3 {
                    let model: Vec<f64> = adds.values().map(|coords| coords[d]).collect();
                    prop_assert_eq!(overlay.add_block().column(d), &model[..], "coordinate {}", d);
                }
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
