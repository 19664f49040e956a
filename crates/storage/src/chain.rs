//! Per-row version chains.
//!
//! Each row is represented by a chain of [`RowVersion`]s ordered newest
//! first. A version is visible to a snapshot `S` if it was created at or
//! before `S` and not superseded at or before `S`. Deletes install a
//! tombstone version (`data == None`), so "row absent at snapshot S" and
//! "row deleted at snapshot S" read identically.

use bargain_common::{Row, Version};

/// One version of a row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowVersion {
    /// Commit version of the transaction that created this version.
    pub begin: Version,
    /// Row image; `None` marks a tombstone (the row was deleted at `begin`).
    pub data: Option<Row>,
}

/// The version history of one row key, newest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionChain {
    versions: Vec<RowVersion>,
}

impl VersionChain {
    /// A chain with a single initial version.
    #[must_use]
    pub fn with_initial(begin: Version, data: Option<Row>) -> Self {
        VersionChain {
            versions: vec![RowVersion { begin, data }],
        }
    }

    /// A chain of `versions` given oldest first, their commit versions
    /// strictly ascending (the order a snapshot stream ships them in).
    #[must_use]
    pub(crate) fn from_oldest_first(mut versions: Vec<RowVersion>) -> Self {
        debug_assert!(versions.windows(2).all(|w| w[0].begin < w[1].begin));
        versions.reverse();
        VersionChain { versions }
    }

    /// Installs a new version committed at `begin`. Versions must be
    /// installed in increasing commit order; this is guaranteed by the proxy
    /// applying commits in the certifier's global order.
    ///
    /// # Panics
    ///
    /// Panics if `begin` is not newer than the chain head — that would mean
    /// the global commit order was violated upstream.
    pub fn install(&mut self, begin: Version, data: Option<Row>) {
        if let Some(head) = self.versions.first() {
            assert!(
                begin > head.begin,
                "version chain: out-of-order install {begin} after {}",
                head.begin
            );
        }
        self.versions.insert(0, RowVersion { begin, data });
    }

    /// The row image visible at snapshot `snapshot`, or `None` if the row
    /// did not exist (or was deleted) at that snapshot.
    #[must_use]
    pub fn read_at(&self, snapshot: Version) -> Option<&Row> {
        self.versions
            .iter()
            .find(|v| v.begin <= snapshot)
            .and_then(|v| v.data.as_ref())
    }

    /// The commit version of the newest version of this row (the version a
    /// write to this row must be validated against).
    #[must_use]
    pub fn latest_commit(&self) -> Option<Version> {
        self.versions.first().map(|v| v.begin)
    }

    /// Whether the newest version is a live row (not a tombstone).
    #[must_use]
    pub fn live_at_head(&self) -> bool {
        self.versions
            .first()
            .map(|v| v.data.is_some())
            .unwrap_or(false)
    }

    /// Number of stored versions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Iterates over the stored versions, newest first.
    pub fn versions(&self) -> std::slice::Iter<'_, RowVersion> {
        self.versions.iter()
    }

    /// Whether the chain holds no versions (only possible after full GC of a
    /// deleted row).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Drops versions that can no longer be observed by any snapshot at or
    /// after `horizon`: everything older than the newest version whose
    /// `begin <= horizon`, and the chain entirely if what remains is a
    /// single tombstone at or below the horizon.
    ///
    /// Returns the number of versions removed.
    pub fn gc(&mut self, horizon: Version) -> usize {
        self.gc_take(horizon).len()
    }

    /// [`VersionChain::gc`], handing back the versions it dropped (the
    /// table takes their index entries out).
    pub fn gc_take(&mut self, horizon: Version) -> Vec<RowVersion> {
        let keep_from = self
            .versions
            .iter()
            .position(|v| v.begin <= horizon)
            .map(|i| i + 1)
            .unwrap_or(self.versions.len());
        let mut dropped = self.versions.split_off(keep_from);
        // If the only remaining version is an old tombstone, the row is gone
        // for every observable snapshot: drop the chain.
        if self.versions.len() == 1
            && self.versions[0].data.is_none()
            && self.versions[0].begin <= horizon
        {
            dropped.append(&mut self.versions);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::Value;

    fn row(v: i64) -> Row {
        vec![Value::Int(v)]
    }

    #[test]
    fn read_at_snapshot_boundaries() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(3), Some(row(30)));
        assert_eq!(c.read_at(Version(0)), None); // before creation
        assert_eq!(c.read_at(Version(1)), Some(&row(10))); // inclusive begin
        assert_eq!(c.read_at(Version(2)), Some(&row(10)));
        assert_eq!(c.read_at(Version(3)), Some(&row(30)));
        assert_eq!(c.read_at(Version(99)), Some(&row(30)));
    }

    #[test]
    fn tombstone_hides_row() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(2), None);
        assert_eq!(c.read_at(Version(1)), Some(&row(10)));
        assert_eq!(c.read_at(Version(2)), None);
        assert!(!c.live_at_head());
    }

    #[test]
    fn resurrection_after_delete() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(2), None);
        c.install(Version(5), Some(row(50)));
        assert_eq!(c.read_at(Version(3)), None);
        assert_eq!(c.read_at(Version(5)), Some(&row(50)));
        assert!(c.live_at_head());
    }

    #[test]
    fn latest_commit_tracks_head() {
        let mut c = VersionChain::with_initial(Version(4), Some(row(1)));
        assert_eq!(c.latest_commit(), Some(Version(4)));
        c.install(Version(9), Some(row(2)));
        assert_eq!(c.latest_commit(), Some(Version(9)));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_install_panics() {
        let mut c = VersionChain::with_initial(Version(5), Some(row(1)));
        c.install(Version(3), Some(row(2)));
    }

    #[test]
    fn gc_keeps_visible_versions() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(3), Some(row(30)));
        c.install(Version(7), Some(row(70)));
        // Horizon 3: version 1 is unobservable (any snapshot >= 3 sees v3).
        let removed = c.gc(Version(3));
        assert_eq!(removed, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.read_at(Version(3)), Some(&row(30)));
        assert_eq!(c.read_at(Version(7)), Some(&row(70)));
    }

    #[test]
    fn gc_below_all_versions_keeps_everything() {
        let mut c = VersionChain::with_initial(Version(5), Some(row(1)));
        c.install(Version(8), Some(row(2)));
        assert_eq!(c.gc(Version(2)), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn gc_drops_dead_tombstone_chain() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(2), None);
        let removed = c.gc(Version(10));
        assert_eq!(removed, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn gc_horizon_below_latest_commit_keeps_straddling_pair() {
        // latest_commit = 9; horizon 6 sits between the two versions:
        // snapshot 6 still reads v4's image, so only v1 is prunable.
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(4), Some(row(40)));
        c.install(Version(9), Some(row(90)));
        assert_eq!(c.latest_commit(), Some(Version(9)));
        assert_eq!(c.gc(Version(6)), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.read_at(Version(6)), Some(&row(40)));
        assert_eq!(c.read_at(Version(9)), Some(&row(90)));
    }

    #[test]
    fn gc_horizon_at_latest_commit_keeps_only_head() {
        // horizon == latest_commit: every older version is unobservable.
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(4), Some(row(40)));
        c.install(Version(9), Some(row(90)));
        assert_eq!(c.gc(Version(9)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.latest_commit(), Some(Version(9)));
        assert_eq!(c.read_at(Version(9)), Some(&row(90)));
        // The head's begin is preserved exactly — re-installing the next
        // commit still asserts order against the true latest commit.
        c.install(Version(10), Some(row(100)));
        assert_eq!(c.read_at(Version(10)), Some(&row(100)));
    }

    #[test]
    fn gc_horizon_above_latest_commit_matches_at_horizon() {
        // horizon > latest_commit behaves exactly like horizon == head for
        // a live row: the head must survive (it is the visible image for
        // every snapshot >= horizon).
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(4), Some(row(40)));
        c.install(Version(9), Some(row(90)));
        assert_eq!(c.gc(Version(42)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.read_at(Version(42)), Some(&row(90)));
        // ...but a tombstone head above-horizon is dropped entirely.
        let mut d = VersionChain::with_initial(Version(1), Some(row(10)));
        d.install(Version(9), None);
        assert_eq!(d.gc(Version(42)), 2);
        assert!(d.is_empty());
    }

    #[test]
    fn gc_keeps_recent_tombstone() {
        let mut c = VersionChain::with_initial(Version(1), Some(row(10)));
        c.install(Version(8), None);
        // Horizon 5: snapshot 5 must still see the live row.
        assert_eq!(c.gc(Version(5)), 0);
        assert_eq!(c.read_at(Version(5)), Some(&row(10)));
        assert_eq!(c.read_at(Version(8)), None);
    }
}
