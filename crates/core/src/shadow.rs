//! Shadow spaces.
//!
//! The detection algorithms keep, for every memory location the computation
//! accesses, the last relevant reader and writer (`O(v)` space, Theorems 1
//! and 5). Locations are dense arena indices, so the shadow space is a
//! flat vector grown on demand — the moral equivalent of the page-table
//! shadow memory real TSan-style tools use.

use rader_cilk::{AccessKind, FrameId, Loc, StrandId};
use rader_dsu::Elem;

use crate::report::AccessInfo;

/// One shadow entry: who last accessed the location, in which bag-forest
/// element, and with what context (for reporting).
#[derive(Clone, Copy, Debug)]
pub struct ShadowEntry {
    /// Bag-forest element of the accessor (frame or reduce invocation).
    pub elem: Elem,
    /// Frame for reporting.
    pub frame: FrameId,
    /// Strand for reporting.
    pub strand: StrandId,
    /// Access classification for reporting.
    pub kind: AccessKind,
}

impl ShadowEntry {
    /// This entry as the prior endpoint of a race.
    pub(crate) fn access(self, write: bool) -> AccessInfo {
        AccessInfo {
            frame: self.frame,
            strand: self.strand,
            write,
            kind: self.kind,
        }
    }
}

/// A reader or writer shadow space over arena locations.
#[derive(Default)]
pub struct ShadowSpace {
    entries: Vec<Option<ShadowEntry>>,
}

impl ShadowSpace {
    /// An empty shadow space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `loc`, if any access was recorded.
    #[inline]
    pub fn get(&self, loc: Loc) -> Option<ShadowEntry> {
        self.entries.get(loc.index()).copied().flatten()
    }

    /// Record `entry` as the last accessor of `loc`.
    #[inline]
    pub fn set(&mut self, loc: Loc, entry: ShadowEntry) {
        let i = loc.index();
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        self.entries[i] = Some(entry);
    }

    /// Number of locations with a recorded access.
    pub fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Forget every recorded access while keeping the backing storage,
    /// so a pooled detector re-running a same-shaped program writes into
    /// already-allocated slots instead of growing a fresh vector.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_dsu::BagForest;

    #[test]
    fn set_get_roundtrip() {
        let mut f = BagForest::new();
        let e = f.make_elem();
        let mut s = ShadowSpace::new();
        assert!(s.get(Loc(5)).is_none());
        s.set(
            Loc(5),
            ShadowEntry {
                elem: e,
                frame: FrameId(1),
                strand: StrandId(2),
                kind: AccessKind::Oblivious,
            },
        );
        let got = s.get(Loc(5)).unwrap();
        assert_eq!(got.frame, FrameId(1));
        assert!(s.get(Loc(4)).is_none());
        assert_eq!(s.occupied(), 1);
    }
}
