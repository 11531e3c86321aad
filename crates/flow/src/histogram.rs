//! The per-/24 TCP packet-size histogram, kept inside its row.
//!
//! IBR TCP is mostly 40–60-byte SYNs (the paper's §4.1 size signal), so
//! a destination /24's histogram holds one to four distinct sizes: on a
//! world-scale day window all but a handful of rows have at most four.
//! [`SizeHistogram`] keeps up to four entries in place, each a `u16`
//! size with a `u32` count, and moves to a heap vector only at a fifth
//! size or when a count passes `u32::MAX`. Copying, merging and
//! decoding a row therefore allocate nothing in the common case, while
//! counts stay exact saturating `u64`s.

use std::fmt;

/// Entries held in place before the histogram moves to the heap.
const INLINE: usize = 4;

/// A TCP packet-size histogram: `(size, sampled packets)` entries,
/// strictly ascending by size, counts saturating at `u64::MAX`.
///
/// 32 bytes. Two histograms with the same entries compare equal
/// whether they are held in place or on the heap.
#[derive(Clone)]
pub struct SizeHistogram(Repr);

#[derive(Clone)]
enum Repr {
    /// `sizes[..len]` ascending, with their counts, each below 2^32.
    Inline {
        len: u8,
        sizes: [u16; INLINE],
        counts: [u32; INLINE],
    },
    /// Any number of entries, ascending by size, exact u64 counts.
    Spilled(Vec<(u16, u64)>),
}

impl SizeHistogram {
    /// The histogram with no entries.
    pub const EMPTY: SizeHistogram = SizeHistogram(Repr::Inline {
        len: 0,
        sizes: [0; INLINE],
        counts: [0; INLINE],
    });

    /// Number of distinct sizes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spilled(entries) => entries.len(),
        }
    }

    /// Whether no size has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(size, count)` entries, ascending by size.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        let (sizes, counts, spilled): (&[u16], &[u32], &[(u16, u64)]) = match &self.0 {
            Repr::Inline { len, sizes, counts } => {
                let n = usize::from(*len);
                (&sizes[..n], &counts[..n], &[])
            }
            Repr::Spilled(entries) => (&[], &[], entries),
        };
        sizes
            .iter()
            .zip(counts)
            .map(|(&size, &count)| (size, u64::from(count)))
            .chain(spilled.iter().copied())
    }

    /// Adds `count` packets of `size`, keeping the entries ascending by
    /// size — the one upsert every size histogram goes through. A new
    /// size gets an entry even when `count` is 0.
    pub fn add(&mut self, size: u16, count: u64) {
        if let Repr::Inline { len, sizes, counts } = &mut self.0 {
            let n = usize::from(*len);
            let at = sizes[..n].iter().position(|&s| s >= size).unwrap_or(n);
            if at < n && sizes[at] == size {
                if let Ok(sum) = u32::try_from(u64::from(counts[at]).saturating_add(count)) {
                    counts[at] = sum;
                    return;
                }
            } else if n < INLINE {
                if let Ok(count) = u32::try_from(count) {
                    sizes.copy_within(at..n, at + 1);
                    counts.copy_within(at..n, at + 1);
                    sizes[at] = size;
                    counts[at] = count;
                    *len += 1;
                    return;
                }
            }
            self.spill();
        }
        if let Repr::Spilled(entries) = &mut self.0 {
            match entries.binary_search_by_key(&size, |&(s, _)| s) {
                Ok(i) => entries[i].1 = entries[i].1.saturating_add(count),
                Err(i) => entries.insert(i, (size, count)),
            }
        }
    }

    /// Adds every entry of `other`. An empty histogram takes a copy.
    pub fn merge(&mut self, other: &SizeHistogram) {
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        for (size, count) in other.iter() {
            self.add(size, count);
        }
    }

    /// Moves the in-place entries to the heap, with room for one more.
    fn spill(&mut self) {
        let mut entries = Vec::with_capacity(INLINE + 1);
        entries.extend(self.iter());
        self.0 = Repr::Spilled(entries);
    }
}

impl Default for SizeHistogram {
    fn default() -> Self {
        SizeHistogram::EMPTY
    }
}

impl PartialEq for SizeHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for SizeHistogram {}

impl fmt::Debug for SizeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<(u16, u64)> for SizeHistogram {
    /// Adds each `(size, count)` in turn; sizes may come in any order
    /// and repeat.
    fn from_iter<I: IntoIterator<Item = (u16, u64)>>(iter: I) -> Self {
        let mut h = SizeHistogram::EMPTY;
        for (size, count) in iter {
            h.add(size, count);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DstBlockStats;
    use proptest::prelude::*;

    /// The `Vec` upsert the histogram replaced: a binary search and an
    /// insert, saturating counts.
    fn oracle_add(sizes: &mut Vec<(u16, u64)>, size: u16, count: u64) {
        match sizes.binary_search_by_key(&size, |&(s, _)| s) {
            Ok(i) => sizes[i].1 = sizes[i].1.saturating_add(count),
            Err(i) => sizes.insert(i, (size, count)),
        }
    }

    fn oracle_merge(into: &mut Vec<(u16, u64)>, from: &[(u16, u64)]) {
        for &(size, count) in from {
            oracle_add(into, size, count);
        }
    }

    /// Sizes from a narrow range (few distinct, so mostly in place) or
    /// the whole `u16` range (many distinct, so spilled).
    fn size() -> impl Strategy<Value = u16> {
        prop_oneof![40u16..44, 40u16..64, any::<u16>(), Just(u16::MAX), Just(0)]
    }

    /// Counts small, around `u32::MAX`, and around `u64::MAX`.
    fn count() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1_000,
            (u64::from(u32::MAX) - 3)..=(u64::from(u32::MAX) + 3),
            (u64::MAX - 3)..=u64::MAX,
        ]
    }

    fn adds() -> impl Strategy<Value = Vec<(u16, u64)>> {
        proptest::collection::vec((size(), count()), 0..12)
    }

    fn both(adds: &[(u16, u64)]) -> (SizeHistogram, Vec<(u16, u64)>) {
        let mut h = SizeHistogram::EMPTY;
        let mut v = Vec::new();
        for &(size, count) in adds {
            h.add(size, count);
            oracle_add(&mut v, size, count);
        }
        (h, v)
    }

    fn row(sizes: SizeHistogram) -> DstBlockStats {
        DstBlockStats {
            tcp_sizes: sizes,
            ..DstBlockStats::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random `add` sequences give the `Vec` oracle's entries, in
        /// order and by length, and so do histogram and row merges of
        /// two such sequences, in both directions and onto an empty
        /// histogram.
        #[test]
        fn size_histogram_matches_the_vec_oracle(a in adds(), b in adds()) {
            let (ha, va) = both(&a);
            let (hb, vb) = both(&b);
            prop_assert_eq!(ha.iter().collect::<Vec<_>>(), va.clone());
            prop_assert_eq!(ha.len(), va.len());
            prop_assert_eq!(ha.is_empty(), va.is_empty());

            for (h_into, v_into, h_from, v_from) in [(&ha, &va, &hb, &vb), (&hb, &vb, &ha, &va)] {
                let mut v = v_into.clone();
                oracle_merge(&mut v, v_from);
                let mut h = h_into.clone();
                h.merge(h_from);
                prop_assert_eq!(h.iter().collect::<Vec<_>>(), v.clone());
                prop_assert_eq!(h.len(), v.len());

                let mut r = row(h_into.clone());
                r.merge_ref(row(h_from.clone()).as_ref());
                prop_assert_eq!(r.tcp_sizes.iter().collect::<Vec<_>>(), v.clone());
                prop_assert_eq!(r.tcp_size_histogram().len(), v.len());

                let mut fresh = DstBlockStats::default();
                fresh.merge_ref(row(h_from.clone()).as_ref());
                prop_assert_eq!(&fresh.tcp_sizes, h_from);
            }
        }
    }

    #[test]
    fn spilled_and_inline_histograms_with_the_same_entries_are_equal() {
        let inline: SizeHistogram = [(40, 3), (60, 2)].into_iter().collect();
        let mut spilled = inline.clone();
        spilled.spill();
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert!(matches!(spilled.0, Repr::Spilled(_)));
        assert_eq!(inline, spilled);
        assert_eq!(spilled, inline);
        let mut other = spilled.clone();
        other.add(40, 1);
        assert_ne!(inline, other);
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
    }

    #[test]
    fn a_fifth_size_or_a_count_past_u32_spills() {
        let mut h: SizeHistogram = [(40, 1), (44, 1), (48, 1), (52, 1)].into_iter().collect();
        assert!(matches!(h.0, Repr::Inline { len: 4, .. }));
        h.add(44, 1);
        assert!(
            matches!(h.0, Repr::Inline { .. }),
            "a known size stays in place"
        );
        h.add(60, 1);
        assert!(matches!(h.0, Repr::Spilled(_)));
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [(40, 1), (44, 2), (48, 1), (52, 1), (60, 1)]
        );

        let mut big: SizeHistogram = [(40, u64::from(u32::MAX))].into_iter().collect();
        assert!(matches!(big.0, Repr::Inline { .. }));
        big.add(40, 1);
        assert!(matches!(big.0, Repr::Spilled(_)));
        big.add(40, u64::MAX);
        assert_eq!(big.iter().collect::<Vec<_>>(), [(40, u64::MAX)]);
    }

    /// The histogram and the destination row it lives in stay compact:
    /// every destination /24 of a window pays for its row whether it saw
    /// TCP or not, so a wider row shows up directly in the daemon's
    /// `peak_rss_mb`. A four-entry `(u16, u64)` array in place gave a
    /// 208-byte row and raised that metric by 5–10 %.
    #[test]
    fn size_histogram_and_row_stay_compact() {
        assert_eq!(std::mem::size_of::<SizeHistogram>(), 32);
        assert!(std::mem::size_of::<DstBlockStats>() <= 168);
    }
}
