//! The columnar candidate plane: a [`ConfigBatch`] arena holding candidate
//! genomes as one flat `u16` slab (stride = slot count), and the borrowed
//! [`ConfigSlice`] view estimators consume.
//!
//! The Step-3 hot path runs 10⁵–10⁶ model estimates per search; with a
//! `Vec`-backed [`Configuration`] every proposed candidate costs a heap
//! allocation that is thrown away the moment `ParetoInsert` rejects it
//! (the overwhelmingly common case). The batch slab amortizes that to
//! zero: rows are written in place with
//! [`crate::config::ConfigSpace::random_into`] /
//! [`crate::config::ConfigSpace::neighbor_into`], estimated through
//! [`crate::search::Estimator::estimate_slice`], and only the rare
//! accepted candidate materializes a [`Configuration`] for the front.

use crate::config::Configuration;

/// A growable arena of candidate genomes stored as one flat row-major
/// `u16` slab. `clear` keeps the capacity, so a search loop reuses the
/// same allocation for every round.
#[derive(Debug, Clone)]
pub struct ConfigBatch {
    genes: Vec<u16>,
    stride: usize,
}

impl ConfigBatch {
    /// An empty batch of genomes with `stride` slots each.
    ///
    /// # Panics
    /// Panics when `stride` is zero — a configuration always has at least
    /// one operation slot.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty batch with capacity for `rows` genomes pre-allocated.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        assert!(stride > 0, "configurations have at least one slot");
        ConfigBatch {
            genes: Vec::with_capacity(stride * rows),
            stride,
        }
    }

    /// Slots per genome.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.genes.len() / self.stride
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Drops all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.genes.clear();
    }

    /// Appends a zeroed row and returns it for in-place writing (the
    /// allocation-free way to add a candidate: pair with
    /// [`crate::config::ConfigSpace::random_into`] or
    /// [`crate::config::ConfigSpace::neighbor_into`]).
    pub fn push_row(&mut self) -> &mut [u16] {
        let start = self.genes.len();
        self.genes.resize(start + self.stride, 0);
        &mut self.genes[start..]
    }

    /// Appends a copy of an existing genome.
    ///
    /// # Panics
    /// Panics when the genome length differs from the stride.
    pub fn push_genes(&mut self, genes: &[u16]) {
        assert_eq!(genes.len(), self.stride, "genome shape mismatch");
        self.genes.extend_from_slice(genes);
    }

    /// Appends a configuration's genome.
    pub fn push_config(&mut self, c: &Configuration) {
        self.push_genes(c.genes());
    }

    /// Row `i` as a genome slice.
    pub fn row(&self, i: usize) -> &[u16] {
        &self.genes[i * self.stride..(i + 1) * self.stride]
    }

    /// Row `i` as a mutable genome slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [u16] {
        &mut self.genes[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u16]> {
        self.genes.chunks_exact(self.stride)
    }

    /// Materializes row `i` as an owned [`Configuration`].
    pub fn to_configuration(&self, i: usize) -> Configuration {
        Configuration::from_genes(self.row(i).to_vec())
    }

    /// The whole batch as a borrowed view.
    pub fn as_slice(&self) -> ConfigSlice<'_> {
        ConfigSlice {
            genes: &self.genes,
            stride: self.stride,
        }
    }

    /// Rows `range` as a borrowed view (the unit
    /// [`crate::search::Estimator::estimate_slice`] consumes).
    ///
    /// # Panics
    /// Panics when the range exceeds the row count.
    pub fn slice(&self, range: std::ops::Range<usize>) -> ConfigSlice<'_> {
        ConfigSlice {
            genes: &self.genes[range.start * self.stride..range.end * self.stride],
            stride: self.stride,
        }
    }

    /// Builds a batch from owned configurations (all the same shape).
    pub fn from_configs(configs: &[Configuration]) -> Self {
        assert!(!configs.is_empty(), "cannot infer stride from zero configs");
        let mut b = Self::with_capacity(configs[0].len(), configs.len());
        for c in configs {
            b.push_genes(c.genes());
        }
        b
    }
}

/// A borrowed, row-major view over candidate genomes — what estimators
/// see. Copy-cheap (a fat pointer plus a stride).
#[derive(Debug, Clone, Copy)]
pub struct ConfigSlice<'a> {
    genes: &'a [u16],
    stride: usize,
}

impl<'a> ConfigSlice<'a> {
    /// Wraps a raw slab; `genes.len()` must be a multiple of `stride`.
    ///
    /// # Panics
    /// Panics on a ragged slab or zero stride.
    pub fn new(genes: &'a [u16], stride: usize) -> Self {
        assert!(stride > 0, "configurations have at least one slot");
        assert_eq!(genes.len() % stride, 0, "ragged slab");
        ConfigSlice { genes, stride }
    }

    /// Slots per genome.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.genes.len() / self.stride
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Row `i` as a genome slice.
    pub fn row(&self, i: usize) -> &'a [u16] {
        &self.genes[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &'a [u16]> {
        self.genes.chunks_exact(self.stride)
    }

    /// The raw row-major gene slab (length = `len() * stride()`) — what
    /// the fused forest kernel consumes directly.
    pub fn genes(&self) -> &'a [u16] {
        self.genes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_back_rows() {
        let mut b = ConfigBatch::new(3);
        assert!(b.is_empty());
        b.push_row().copy_from_slice(&[1, 2, 3]);
        b.push_genes(&[4, 5, 6]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[1, 2, 3]);
        assert_eq!(b.row(1), &[4, 5, 6]);
        assert_eq!(b.to_configuration(1).genes(), &[4, 5, 6]);
        let rows: Vec<&[u16]> = b.rows().collect();
        assert_eq!(rows, vec![&[1u16, 2, 3][..], &[4, 5, 6][..]]);
    }

    #[test]
    fn clear_keeps_capacity_and_allocation() {
        let mut b = ConfigBatch::with_capacity(4, 8);
        for _ in 0..8 {
            b.push_row();
        }
        let cap = b.genes.capacity();
        let ptr = b.genes.as_ptr();
        b.clear();
        assert!(b.is_empty());
        for i in 0..8 {
            let row = b.push_row();
            row.fill(i as u16);
        }
        assert_eq!(b.genes.capacity(), cap, "clear() must not shrink");
        assert_eq!(b.genes.as_ptr(), ptr, "refill must reuse the slab");
    }

    #[test]
    fn slice_views_share_the_slab() {
        let mut b = ConfigBatch::new(2);
        for i in 0..5u16 {
            b.push_genes(&[i, i + 10]);
        }
        let s = b.slice(1..4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.row(0), &[1, 11]);
        assert_eq!(s.row(2), &[3, 13]);
        let whole = b.as_slice();
        assert_eq!(whole.len(), 5);
        assert!(!whole.is_empty());
        let collected: Vec<&[u16]> = s.rows().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    #[should_panic(expected = "genome shape mismatch")]
    fn ragged_push_panics() {
        let mut b = ConfigBatch::new(3);
        b.push_genes(&[1, 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// ConfigBatch round-trips Configurations exactly: pushing any
        /// set of same-shape genomes and materializing them back yields
        /// the identical configurations, whichever of the three push
        /// paths wrote them.
        #[test]
        fn round_trips_configurations_exactly(
            stride in 1usize..9,
            raw in proptest::collection::vec(any::<u16>(), 0..120),
        ) {
            let rows = raw.len() / stride;
            let configs: Vec<crate::config::Configuration> = (0..rows)
                .map(|r| crate::config::Configuration::from_genes(
                    raw[r * stride..(r + 1) * stride].to_vec(),
                ))
                .collect();
            let mut b = ConfigBatch::new(stride);
            for (i, c) in configs.iter().enumerate() {
                match i % 3 {
                    0 => b.push_config(c),
                    1 => b.push_genes(c.genes()),
                    _ => b.push_row().copy_from_slice(c.genes()),
                }
            }
            prop_assert_eq!(b.len(), rows);
            for (i, c) in configs.iter().enumerate() {
                prop_assert_eq!(&b.to_configuration(i), c);
                prop_assert_eq!(b.row(i), c.genes());
                prop_assert_eq!(b.as_slice().row(i), c.genes());
            }
            if rows > 0 {
                let rebuilt = ConfigBatch::from_configs(&configs);
                prop_assert_eq!(rebuilt.genes, b.genes);
            }
        }
    }
}
