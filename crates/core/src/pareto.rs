//! Pareto fronts over (QoR, hardware-cost) trade-offs, the `ParetoInsert`
//! operation of Algorithm 1, and the front-distance metrics of Table 4.

/// One point in the two-objective trade-off space: QoR is maximized,
/// cost is minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Quality of result (higher is better; e.g. SSIM).
    pub qor: f64,
    /// Hardware cost (lower is better; e.g. area).
    pub cost: f64,
}

impl TradeoffPoint {
    /// Creates a point.
    pub fn new(qor: f64, cost: f64) -> Self {
        TradeoffPoint { qor, cost }
    }

    /// True if `self` Pareto-dominates `other`: no worse in both
    /// objectives and strictly better in at least one.
    ///
    /// A point with a NaN coordinate is incomparable: it neither dominates
    /// nor is dominated (every comparison is false). Fronts therefore
    /// refuse non-finite points at insertion — see
    /// [`ParetoFront::try_insert`] — because an incomparable member would
    /// silently pollute the set.
    pub fn dominates(&self, other: &TradeoffPoint) -> bool {
        self.qor >= other.qor
            && self.cost <= other.cost
            && (self.qor > other.qor || self.cost < other.cost)
    }

    /// True when both coordinates are finite (no NaN, no infinities).
    pub fn is_finite(&self) -> bool {
        self.qor.is_finite() && self.cost.is_finite()
    }
}

/// A Pareto set of payloads keyed by their trade-off points.
///
/// Members keep their insertion order (stagnation restarts and island
/// merges read it). Beside them the front keeps a mirror of their
/// points sorted by ascending qor, which both inserts use for the
/// reject test and the eviction. Members are pairwise non-dominated and
/// distinct, so along the mirror qor strictly ascends and so does cost.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront<T> {
    points: Vec<(TradeoffPoint, T)>,
    /// The members' points sorted by ascending qor.
    by_qor: Vec<TradeoffPoint>,
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront {
            points: Vec::new(),
            by_qor: Vec::new(),
        }
    }

    /// The `ParetoInsert` of Algorithm 1: inserts the candidate iff it is
    /// neither dominated by nor identical to any member, removing every
    /// member it dominates. Returns `true` when the candidate was
    /// inserted.
    ///
    /// Point-identical candidates are rejected so that revisiting a
    /// configuration (or finding another with the same estimates) does not
    /// grow the set — matching the paper's insert-on-domination semantics.
    ///
    /// Non-finite candidates (a degenerate model can emit NaN) are
    /// rejected outright: NaN is incomparable under
    /// [`TradeoffPoint::dominates`] and would pollute the front. Debug
    /// builds assert; release builds skip silently.
    pub fn try_insert(&mut self, p: TradeoffPoint, payload: T) -> bool {
        self.try_insert_with(p, || payload)
    }

    /// [`ParetoFront::try_insert`] with a lazily built payload: `payload`
    /// is only called when the point is actually accepted. This is what
    /// keeps the columnar search loop allocation-free — a rejected
    /// candidate (the overwhelmingly common case at 10⁵–10⁶ evals) never
    /// materializes a [`crate::config::Configuration`].
    pub fn try_insert_with(&mut self, p: TradeoffPoint, payload: impl FnOnce() -> T) -> bool {
        let Some(evicts) = self.admit(p) else {
            return false;
        };
        if evicts {
            self.points.retain(|(q, _)| !p.dominates(q));
        }
        self.points.push((p, payload()));
        self.debug_check_mirror();
        true
    }

    /// Batched `ParetoInsert` with deferred payloads: exactly the
    /// decisions of calling [`ParetoFront::try_insert_with`] for each
    /// point of `pts` in order — same final members, same order, same
    /// acceptance count — except that `materialize(i)` runs only for
    /// batch indices still on the front **after the whole batch**. A
    /// candidate accepted mid-batch but evicted by a later batch member
    /// never builds its payload (with [`ParetoFront::try_insert_with`]
    /// it would).
    ///
    /// Returns the number of accepted candidates — i.e. how many
    /// `try_insert_with` calls would have returned `true`, which can
    /// exceed the number of payloads materialized.
    pub fn insert_batch_with(
        &mut self,
        pts: &[TradeoffPoint],
        mut materialize: impl FnMut(usize) -> T,
    ) -> usize {
        // Candidates accepted so far, in acceptance order: they follow
        // every earlier member, as the sequential appends would.
        let mut pending: Vec<(TradeoffPoint, usize)> = Vec::new();
        let mut accepted = 0;
        for (i, &p) in pts.iter().enumerate() {
            let Some(evicts) = self.admit(p) else {
                continue;
            };
            if evicts {
                self.points.retain(|(q, _)| !p.dominates(q));
                pending.retain(|(q, _)| !p.dominates(q));
            }
            pending.push((p, i));
            accepted += 1;
        }
        self.points
            .extend(pending.into_iter().map(|(p, i)| (p, materialize(i))));
        self.debug_check_mirror();
        accepted
    }

    /// The reject test and the mirror's update, shared by both inserts:
    /// `None` when `p` is rejected, otherwise whether `p` evicted any
    /// member.
    ///
    /// `p` is rejected when some member has qor ≥ `p.qor` and cost ≤
    /// `p.cost` (it dominates `p` or equals it). Cost ascends with qor
    /// along the mirror, so the cheapest such member is the first one
    /// with qor ≥ `p.qor`: one `partition_point` and one compare. An
    /// accepted `p` dominates exactly the members with qor ≤ `p.qor` and
    /// cost ≥ `p.cost`, one contiguous run of the mirror, and takes
    /// their place in it.
    fn admit(&mut self, p: TradeoffPoint) -> Option<bool> {
        if !p.is_finite() {
            debug_assert!(p.is_finite(), "non-finite trade-off point {p:?}");
            return None;
        }
        let k = self.by_qor.partition_point(|q| q.qor < p.qor);
        let at_k = self.by_qor.get(k);
        if at_k.is_some_and(|q| q.cost <= p.cost) {
            return None;
        }
        // a member at k with p's qor costs more than p: p dominates it
        let end = k + usize::from(at_k.is_some_and(|q| q.qor == p.qor));
        let start = self.by_qor[..end].partition_point(|q| q.cost < p.cost);
        self.by_qor.splice(start..end, [p]);
        Some(start < end)
    }

    /// Debug builds: the mirror holds exactly the members' points,
    /// sorted by qor.
    fn debug_check_mirror(&self) {
        debug_assert!(
            {
                let mut want = self.points();
                want.sort_by(|a, b| a.qor.total_cmp(&b.qor));
                let bits = |v: &[TradeoffPoint]| -> Vec<(u64, u64)> {
                    v.iter()
                        .map(|p| (p.qor.to_bits(), p.cost.to_bits()))
                        .collect()
                };
                bits(&want) == bits(&self.by_qor)
            },
            "sorted mirror out of step with the members"
        );
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(point, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = &(TradeoffPoint, T)> {
        self.points.iter()
    }

    /// The trade-off points alone.
    pub fn points(&self) -> Vec<TradeoffPoint> {
        self.points.iter().map(|(p, _)| *p).collect()
    }

    /// Consumes the front into its members, sorted by ascending cost.
    pub fn into_sorted(mut self) -> Vec<(TradeoffPoint, T)> {
        self.points.sort_by(|a, b| {
            a.0.cost
                .partial_cmp(&b.0.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.points
    }
}

impl<T> FromIterator<(TradeoffPoint, T)> for ParetoFront<T> {
    fn from_iter<I: IntoIterator<Item = (TradeoffPoint, T)>>(iter: I) -> Self {
        let mut f = ParetoFront::new();
        for (p, t) in iter {
            f.try_insert(p, t);
        }
        f
    }
}

/// `(qor, cost)` coordinates normalized into the unit square.
pub type NormalizedPoints = Vec<(f64, f64)>;

/// Normalizes two point sets into `[0, 1]²` over their joint bounding box
/// (the paper: "the distance is calculated from estimated QoR and HW
/// parameters normalized to range <0,1>").
pub fn normalize_joint(
    a: &[TradeoffPoint],
    b: &[TradeoffPoint],
) -> (NormalizedPoints, NormalizedPoints) {
    let mut qmin = f64::INFINITY;
    let mut qmax = f64::NEG_INFINITY;
    let mut cmin = f64::INFINITY;
    let mut cmax = f64::NEG_INFINITY;
    for p in a.iter().chain(b.iter()) {
        qmin = qmin.min(p.qor);
        qmax = qmax.max(p.qor);
        cmin = cmin.min(p.cost);
        cmax = cmax.max(p.cost);
    }
    let qs = (qmax - qmin).max(1e-12);
    let cs = (cmax - cmin).max(1e-12);
    let map = |pts: &[TradeoffPoint]| {
        pts.iter()
            .map(|p| ((p.qor - qmin) / qs, (p.cost - cmin) / cs))
            .collect()
    };
    (map(a), map(b))
}

/// Average and maximum directed Euclidean distance from each point of
/// `from` to its nearest point of `to` (inputs already normalized).
///
/// Returns `(avg, max)`; `(0, 0)` when `from` is empty.
///
/// # Panics
/// Panics if `to` is empty while `from` is not.
pub fn directed_distance(from: &[(f64, f64)], to: &[(f64, f64)]) -> (f64, f64) {
    if from.is_empty() {
        return (0.0, 0.0);
    }
    assert!(!to.is_empty(), "reference front must not be empty");
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for &(x, y) in from {
        let d = to
            .iter()
            .map(|&(u, v)| ((x - u).powi(2) + (y - v).powi(2)).sqrt())
            .fold(f64::INFINITY, f64::min);
        sum += d;
        max = max.max(d);
    }
    (sum / from.len() as f64, max)
}

/// The Table 4 distance report between an obtained front `s` and the
/// optimal front `p`: `to_optimal` = distances from members of `s` to the
/// nearest optimal point, `from_optimal` = distances from optimal points
/// to the nearest obtained point. Both as `(avg, max)` on jointly
/// normalized coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDistances {
    /// `(avg, max)` of min-distances from obtained to optimal.
    pub to_optimal: (f64, f64),
    /// `(avg, max)` of min-distances from optimal to obtained.
    pub from_optimal: (f64, f64),
}

/// Computes [`FrontDistances`] between an obtained and an optimal front.
pub fn front_distances(obtained: &[TradeoffPoint], optimal: &[TradeoffPoint]) -> FrontDistances {
    let (s, p) = normalize_joint(obtained, optimal);
    FrontDistances {
        to_optimal: directed_distance(&s, &p),
        from_optimal: directed_distance(&p, &s),
    }
}

/// Two-objective hypervolume indicator: the area of the region dominated
/// by `points` inside the reference box — QoR maximized, cost minimized,
/// `reference` the *worst* corner `(qor_lo, cost_hi)`. Larger is better;
/// this is the quantitative lens under which [`crate::search`] strategies
/// are compared (Zitzler's S-metric).
///
/// Points outside the reference box (QoR at or below `reference.qor`, or
/// cost at or above `reference.cost`) contribute nothing. Dominated or
/// duplicate members of `points` are harmless — the union of their boxes
/// is what is measured.
pub fn hypervolume2(points: &[TradeoffPoint], reference: TradeoffPoint) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.is_finite() && p.qor > reference.qor && p.cost < reference.cost)
        .map(|p| (p.qor, p.cost))
        .collect();
    pts.sort_by(|a, b| a.1.total_cmp(&b.1));
    // Sweep cost upward: in the slab between consecutive costs the
    // attainable QoR is the best among all points at or below the slab's
    // lower edge.
    let mut hv = 0.0;
    let mut best = f64::NEG_INFINITY;
    for (i, &(qor, cost)) in pts.iter().enumerate() {
        best = best.max(qor);
        let upper = pts.get(i + 1).map(|p| p.1).unwrap_or(reference.cost);
        hv += (best - reference.qor) * (upper - cost);
    }
    hv
}

/// Three-objective hypervolume (QoR maximized, both costs minimized)
/// against the worst-corner reference `[qor_lo, cost_a_hi, cost_b_hi]` —
/// the volume counterpart of [`hypervolume2`] for the final
/// (SSIM, area, energy) selection of [`ParetoFront3`].
///
/// Computed by slicing along the QoR axis: each slab between consecutive
/// QoR levels contributes `height × area` where the area is the union of
/// the cost rectangles of every point at or above the slab's top level
/// (O(n² log n); front sizes here are tens, not thousands).
pub fn hypervolume3(points: &[[f64; 3]], reference: [f64; 3]) -> f64 {
    let boxed: Vec<[f64; 3]> = points
        .iter()
        .filter(|p| {
            p.iter().all(|v| v.is_finite())
                && p[0] > reference[0]
                && p[1] < reference[1]
                && p[2] < reference[2]
        })
        .copied()
        .collect();
    if boxed.is_empty() {
        return 0.0;
    }
    // Distinct QoR levels, descending.
    let mut levels: Vec<f64> = boxed.iter().map(|p| p[0]).collect();
    levels.sort_by(|a, b| b.total_cmp(a));
    levels.dedup();
    let mut hv = 0.0;
    for (k, &level) in levels.iter().enumerate() {
        let floor = levels.get(k + 1).copied().unwrap_or(reference[0]);
        let height = level - floor;
        // 2-D union area of the cost rectangles [a, ref_a] × [b, ref_b]
        // over points with qor >= level: keep the (a, b)-minimal set,
        // sort by cost_a ascending (cost_b then strictly descends).
        let mut rect: Vec<(f64, f64)> = boxed
            .iter()
            .filter(|p| p[0] >= level)
            .map(|p| (p[1], p[2]))
            .collect();
        rect.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
        let mut area = 0.0;
        let mut prev_b = reference[2];
        for &(a, b) in &rect {
            if b < prev_b {
                area += (prev_b - b) * (reference[1] - a);
                prev_b = b;
            }
        }
        hv += height * area;
    }
    hv
}

/// Hypervolumes of several fronts on a *shared* normalization: all points
/// of all fronts are jointly scaled into the unit square (as in
/// [`normalize_joint`]) and each front's [`hypervolume2`] is measured
/// against the worst corner `(0, 1)`. This makes the returned values
/// directly comparable across fronts — the number the strategy-comparison
/// benches and tables report.
pub fn joint_hypervolumes(fronts: &[&[TradeoffPoint]]) -> Vec<f64> {
    let mut qmin = f64::INFINITY;
    let mut qmax = f64::NEG_INFINITY;
    let mut cmin = f64::INFINITY;
    let mut cmax = f64::NEG_INFINITY;
    for p in fronts.iter().flat_map(|f| f.iter()) {
        qmin = qmin.min(p.qor);
        qmax = qmax.max(p.qor);
        cmin = cmin.min(p.cost);
        cmax = cmax.max(p.cost);
    }
    let qs = (qmax - qmin).max(1e-12);
    let cs = (cmax - cmin).max(1e-12);
    // Nudge the reference just outside the box so boundary points (the
    // joint extremes) still contribute a sliver instead of vanishing.
    let reference = TradeoffPoint::new(-1e-9, 1.0 + 1e-9);
    fronts
        .iter()
        .map(|f| {
            let scaled: Vec<TradeoffPoint> = f
                .iter()
                .map(|p| TradeoffPoint::new((p.qor - qmin) / qs, (p.cost - cmin) / cs))
                .collect();
            hypervolume2(&scaled, reference)
        })
        .collect()
}

/// A three-objective Pareto set used for the final selection ("Pareto
/// optimal in terms of area, SSIM and energy", paper Section 4.2):
/// QoR maximized, both costs minimized.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront3<T> {
    points: Vec<([f64; 3], T)>, // [qor, cost_a, cost_b]
}

impl<T> ParetoFront3<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront3 { points: Vec::new() }
    }

    /// Inserts iff non-dominated; removes newly dominated members.
    ///
    /// Like [`ParetoFront::try_insert`], non-finite coordinates are
    /// rejected (debug assertion, release skip).
    pub fn try_insert(&mut self, qor: f64, cost_a: f64, cost_b: f64, payload: T) -> bool {
        let finite = qor.is_finite() && cost_a.is_finite() && cost_b.is_finite();
        if !finite {
            debug_assert!(finite, "non-finite objectives ({qor}, {cost_a}, {cost_b})");
            return false;
        }
        let p = [qor, cost_a, cost_b];
        let dom = |a: &[f64; 3], b: &[f64; 3]| {
            a[0] >= b[0]
                && a[1] <= b[1]
                && a[2] <= b[2]
                && (a[0] > b[0] || a[1] < b[1] || a[2] < b[2])
        };
        if self.points.iter().any(|(q, _)| dom(q, &p)) {
            return false;
        }
        self.points.retain(|(q, _)| !dom(&p, q));
        self.points.push((p, payload));
        true
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `([qor, cost_a, cost_b], payload)`.
    pub fn iter(&self) -> impl Iterator<Item = &([f64; 3], T)> {
        self.points.iter()
    }

    /// Consumes into members sorted by ascending `cost_a`.
    pub fn into_sorted(mut self) -> Vec<([f64; 3], T)> {
        self.points.sort_by(|a, b| {
            a.0[1]
                .partial_cmp(&b.0[1])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_definition() {
        let a = TradeoffPoint::new(0.9, 10.0);
        let b = TradeoffPoint::new(0.8, 12.0);
        let c = TradeoffPoint::new(0.9, 10.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "equal points do not dominate");
    }

    #[test]
    fn nan_points_are_incomparable() {
        let nan = TradeoffPoint::new(f64::NAN, 1.0);
        let ok = TradeoffPoint::new(0.5, 1.0);
        assert!(!nan.dominates(&ok));
        assert!(!ok.dominates(&nan));
        assert!(!nan.is_finite());
        assert!(!TradeoffPoint::new(0.5, f64::INFINITY).is_finite());
        assert!(ok.is_finite());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite trade-off point")]
    fn nan_insert_asserts_in_debug() {
        let mut f = ParetoFront::new();
        f.try_insert(TradeoffPoint::new(f64::NAN, 1.0), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_insert_is_skipped_in_release() {
        let mut f = ParetoFront::new();
        assert!(!f.try_insert(TradeoffPoint::new(f64::NAN, 1.0), "nan"));
        assert!(!f.try_insert(TradeoffPoint::new(1.0, f64::NAN), "nan"));
        assert!(!f.try_insert(TradeoffPoint::new(f64::INFINITY, 1.0), "inf"));
        assert!(f.is_empty());
        // the front still works for finite points afterwards
        assert!(f.try_insert(TradeoffPoint::new(0.9, 10.0), "ok"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite objectives")]
    fn nan_insert3_asserts_in_debug() {
        let mut f = ParetoFront3::new();
        f.try_insert(0.9, f64::NAN, 1.0, ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_insert3_is_skipped_in_release() {
        let mut f = ParetoFront3::new();
        assert!(!f.try_insert(0.9, f64::NAN, 1.0, ()));
        assert!(!f.try_insert(f64::NEG_INFINITY, 1.0, 1.0, ()));
        assert!(f.is_empty());
        assert!(f.try_insert(0.9, 1.0, 1.0, ()));
    }

    #[test]
    fn insert_keeps_front_minimal() {
        let mut f = ParetoFront::new();
        assert!(f.try_insert(TradeoffPoint::new(0.5, 50.0), "a"));
        assert!(f.try_insert(TradeoffPoint::new(0.9, 100.0), "b"));
        assert!(f.try_insert(TradeoffPoint::new(0.7, 70.0), "c"));
        assert_eq!(f.len(), 3);
        // dominated candidate rejected
        assert!(!f.try_insert(TradeoffPoint::new(0.4, 60.0), "d"));
        assert_eq!(f.len(), 3);
        // dominating candidate evicts two members
        assert!(f.try_insert(TradeoffPoint::new(0.95, 45.0), "e"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn front_invariant_no_mutual_domination() {
        let mut f = ParetoFront::new();
        let mut st = 77u64;
        for _ in 0..500 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            let q = (st >> 40) as f64 / (1u64 << 24) as f64;
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = (st >> 40) as f64 / (1u64 << 24) as f64;
            f.try_insert(TradeoffPoint::new(q, c), ());
        }
        let pts = f.points();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "{a:?} dominates {b:?}");
                }
            }
        }
    }

    /// Deterministic pseudo-random stream on a coarse grid so the stream
    /// contains duplicates, dominated points and ties in one objective.
    /// A zero coordinate is drawn as `-0.0` half the time, so `-0.0` and
    /// `+0.0` compete.
    fn grid_stream(seed: u64, n: usize) -> Vec<TradeoffPoint> {
        let mut st = seed;
        let mut draw = |levels: u64| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((st >> 33) % levels) as f64 / (levels - 1) as f64;
            if v == 0.0 && (st >> 20) & 1 == 1 {
                -0.0
            } else {
                v
            }
        };
        (0..n)
            .map(|_| {
                let q = draw(13);
                TradeoffPoint::new(q, draw(11))
            })
            .collect()
    }

    #[test]
    fn every_dominated_input_is_excluded_from_the_front() {
        let inputs = grid_stream(2019, 600);
        let mut front = ParetoFront::new();
        for (i, p) in inputs.iter().enumerate() {
            front.try_insert(*p, i);
        }
        let pts = front.points();
        for inp in &inputs {
            let on_front = pts.iter().any(|p| p.qor == inp.qor && p.cost == inp.cost);
            let dominated = pts.iter().any(|p| p.dominates(inp));
            // Completeness: an input is either kept (by value) or beaten.
            assert!(
                on_front || dominated,
                "{inp:?} neither on front nor dominated"
            );
            // Minimality: nothing on the front is dominated by the front.
            assert!(!(on_front && dominated), "{inp:?} kept while dominated");
        }
    }

    #[test]
    fn no_front_point_dominates_another_regardless_of_insertion_order() {
        let mut inputs = grid_stream(7, 300);
        for pass in 0..3 {
            // different insertion orders must all yield a minimal front
            inputs.rotate_left(97 * pass + 1);
            let mut front = ParetoFront::new();
            for p in &inputs {
                front.try_insert(*p, ());
            }
            let pts = front.points();
            assert!(!pts.is_empty());
            for (i, a) in pts.iter().enumerate() {
                for (j, b) in pts.iter().enumerate() {
                    if i != j {
                        assert!(!a.dominates(b), "pass {pass}: {a:?} dominates {b:?}");
                        assert!(
                            !(a.qor == b.qor && a.cost == b.cost),
                            "pass {pass}: duplicate {a:?} kept"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pareto3_front_is_minimal_and_complete() {
        let mut st = 99u64;
        let mut next = || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % 7) as f64 / 6.0
        };
        let inputs: Vec<[f64; 3]> = (0..400).map(|_| [next(), next(), next()]).collect();
        let mut front = ParetoFront3::new();
        for (i, p) in inputs.iter().enumerate() {
            front.try_insert(p[0], p[1], p[2], i);
        }
        let dom = |a: &[f64; 3], b: &[f64; 3]| {
            a[0] >= b[0]
                && a[1] <= b[1]
                && a[2] <= b[2]
                && (a[0] > b[0] || a[1] < b[1] || a[2] < b[2])
        };
        let members: Vec<[f64; 3]> = front.iter().map(|(p, _)| *p).collect();
        for (i, a) in members.iter().enumerate() {
            for (j, b) in members.iter().enumerate() {
                assert!(i == j || !dom(a, b), "{a:?} dominates {b:?}");
            }
        }
        for inp in &inputs {
            assert!(
                members.iter().any(|m| m == inp) || members.iter().any(|m| dom(m, inp)),
                "{inp:?} lost without being dominated"
            );
        }
    }

    #[test]
    fn distances_zero_for_identical_fronts() {
        let pts = vec![
            TradeoffPoint::new(0.9, 10.0),
            TradeoffPoint::new(0.8, 5.0),
            TradeoffPoint::new(0.99, 30.0),
        ];
        let d = front_distances(&pts, &pts);
        assert_eq!(d.to_optimal, (0.0, 0.0));
        assert_eq!(d.from_optimal, (0.0, 0.0));
    }

    #[test]
    fn missing_region_increases_from_optimal() {
        let optimal = vec![
            TradeoffPoint::new(0.1, 1.0),
            TradeoffPoint::new(0.5, 5.0),
            TradeoffPoint::new(0.9, 9.0),
        ];
        // obtained covers only the cheap end
        let obtained = vec![TradeoffPoint::new(0.1, 1.0)];
        let d = front_distances(&obtained, &optimal);
        assert_eq!(d.to_optimal.0, 0.0);
        assert!(d.from_optimal.0 > 0.3);
        assert!(d.from_optimal.1 > 0.9);
    }

    #[test]
    fn normalization_uses_joint_bounds() {
        let a = vec![TradeoffPoint::new(0.0, 0.0)];
        let b = vec![TradeoffPoint::new(1.0, 100.0)];
        let (na, nb) = normalize_joint(&a, &b);
        assert_eq!(na[0], (0.0, 0.0));
        assert_eq!(nb[0], (1.0, 1.0));
    }

    #[test]
    fn pareto3_dominance() {
        let mut f = ParetoFront3::new();
        assert!(f.try_insert(0.9, 10.0, 5.0, "a"));
        // better qor, worse energy: non-dominated
        assert!(f.try_insert(0.95, 10.0, 6.0, "b"));
        // dominated in all three
        assert!(!f.try_insert(0.89, 11.0, 6.0, "c"));
        // dominates "a"
        assert!(f.try_insert(0.91, 9.0, 4.0, "d"));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn hypervolume2_single_point_is_its_box() {
        // one point (qor 0.8, cost 2.0) against worst corner (0, 10):
        // dominated region is [0, 0.8] x [2, 10] = 0.8 * 8 = 6.4
        let hv = hypervolume2(
            &[TradeoffPoint::new(0.8, 2.0)],
            TradeoffPoint::new(0.0, 10.0),
        );
        assert!((hv - 6.4).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume2_two_point_staircase_hand_computed() {
        // points (0.5, 1) and (0.9, 4), ref (0, 10):
        // slab [1,4): best qor 0.5 -> 0.5*3 = 1.5
        // slab [4,10): best qor 0.9 -> 0.9*6 = 5.4
        // total 6.9
        let pts = [TradeoffPoint::new(0.5, 1.0), TradeoffPoint::new(0.9, 4.0)];
        let hv = hypervolume2(&pts, TradeoffPoint::new(0.0, 10.0));
        assert!((hv - 6.9).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume2_ignores_dominated_and_out_of_box_points() {
        let reference = TradeoffPoint::new(0.0, 10.0);
        let base = [TradeoffPoint::new(0.5, 1.0), TradeoffPoint::new(0.9, 4.0)];
        let hv_base = hypervolume2(&base, reference);
        let noisy = [
            base[0],
            base[1],
            TradeoffPoint::new(0.4, 5.0),      // dominated by (0.9, 4)
            TradeoffPoint::new(0.95, 11.0),    // outside: cost beyond ref
            TradeoffPoint::new(-0.1, 2.0),     // outside: qor below ref
            TradeoffPoint::new(f64::NAN, 1.0), // non-finite
        ];
        assert_eq!(hypervolume2(&noisy, reference).to_bits(), hv_base.to_bits());
        // empty front has zero hypervolume
        assert_eq!(hypervolume2(&[], reference), 0.0);
    }

    #[test]
    fn hypervolume2_dominating_front_has_larger_volume() {
        let reference = TradeoffPoint::new(0.0, 10.0);
        let worse = [TradeoffPoint::new(0.5, 5.0)];
        let better = [TradeoffPoint::new(0.7, 3.0)];
        assert!(hypervolume2(&better, reference) > hypervolume2(&worse, reference));
    }

    #[test]
    fn hypervolume3_single_point_is_its_box() {
        // point (0.5, 2, 3), ref (0, 10, 10):
        // volume = 0.5 * (10-2) * (10-3) = 28
        let hv = hypervolume3(&[[0.5, 2.0, 3.0]], [0.0, 10.0, 10.0]);
        assert!((hv - 28.0).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume3_two_points_hand_computed() {
        // p1 = (1.0, 1, 5), p2 = (2.0, 2, 3), ref (0, 10, 10).
        // Slab qor in (1, 2]: only p2 -> area (10-2)*(10-3) = 56, h = 1.
        // Slab qor in (0, 1]: p1 and p2 -> union of [1,10]x[5,10] and
        // [2,10]x[3,10] = 9*5 + 8*2 = 61, h = 1.
        // total = 56 + 61 = 117
        let hv = hypervolume3(&[[1.0, 1.0, 5.0], [2.0, 2.0, 3.0]], [0.0, 10.0, 10.0]);
        assert!((hv - 117.0).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume3_degenerate_third_objective_matches_2d() {
        // With cost_b identical everywhere, hv3 = hv2 * (ref_b - b).
        let pts2 = [TradeoffPoint::new(0.5, 1.0), TradeoffPoint::new(0.9, 4.0)];
        let pts3: Vec<[f64; 3]> = pts2.iter().map(|p| [p.qor, p.cost, 7.0]).collect();
        let hv2 = hypervolume2(&pts2, TradeoffPoint::new(0.0, 10.0));
        let hv3 = hypervolume3(&pts3, [0.0, 10.0, 10.0]);
        assert!((hv3 - hv2 * 3.0).abs() < 1e-12, "{hv3} vs {}", hv2 * 3.0);
    }

    #[test]
    fn joint_hypervolumes_rank_fronts_consistently() {
        let strong = vec![TradeoffPoint::new(0.95, 10.0), TradeoffPoint::new(0.6, 2.0)];
        let weak = vec![TradeoffPoint::new(0.5, 9.0)];
        let hv = joint_hypervolumes(&[&strong, &weak]);
        assert_eq!(hv.len(), 2);
        assert!(hv[0] > hv[1], "{hv:?}");
        // normalized volumes live in (slightly above) the unit square
        assert!(hv[0] <= 1.0 + 1e-6);
        assert!(hv[1] >= 0.0);
    }

    #[test]
    fn try_insert_with_builds_payload_only_on_accept() {
        let mut f = ParetoFront::new();
        let mut built = 0;
        assert!(f.try_insert_with(TradeoffPoint::new(0.9, 10.0), || {
            built += 1;
            "a"
        }));
        assert_eq!(built, 1);
        // dominated candidate: the payload closure must never run
        let mut ran = false;
        assert!(!f.try_insert_with(TradeoffPoint::new(0.5, 20.0), || {
            ran = true;
            "b"
        }));
        assert!(!ran, "payload built for a rejected candidate");
        // duplicate point: also rejected without building
        let mut ran2 = false;
        assert!(!f.try_insert_with(TradeoffPoint::new(0.9, 10.0), || {
            ran2 = true;
            "c"
        }));
        assert!(!ran2);
    }

    /// The linear-scan `ParetoInsert` that the sorted mirror replaced:
    /// the oracle both insert paths are held to.
    fn oracle_insert(
        points: &mut Vec<(TradeoffPoint, usize)>,
        p: TradeoffPoint,
        id: usize,
    ) -> bool {
        if !p.is_finite()
            || points
                .iter()
                .any(|(q, _)| q.dominates(&p) || (q.qor == p.qor && q.cost == p.cost))
        {
            return false;
        }
        points.retain(|(q, _)| !p.dominates(q));
        points.push((p, id));
        true
    }

    #[test]
    fn insert_batch_matches_sequential_inserts_exactly() {
        // Many seeds, duplicate-heavy grid streams with both signed
        // zeros, varying batch sizes and non-empty starting fronts: the
        // per-candidate path must take every decision of the linear-scan
        // oracle, and the batched path and a front that interleaves both
        // mutators must reproduce it member for member, order included.
        let bits = |v: &[(TradeoffPoint, usize)]| -> Vec<(u64, u64, usize)> {
            v.iter()
                .map(|(p, t)| (p.qor.to_bits(), p.cost.to_bits(), *t))
                .collect()
        };
        let members =
            |f: &ParetoFront<usize>| -> Vec<(TradeoffPoint, usize)> { f.iter().copied().collect() };
        for seed in [1u64, 7, 42, 2019, 77777] {
            let inputs = grid_stream(seed, 400);
            for batch in [1usize, 3, 32, 400] {
                let mut oracle: Vec<(TradeoffPoint, usize)> = Vec::new();
                let mut seq: ParetoFront<usize> = ParetoFront::new();
                let mut bat: ParetoFront<usize> = ParetoFront::new();
                let mut mixed: ParetoFront<usize> = ParetoFront::new();
                let mut oracle_accepts = 0usize;
                let mut bat_accepts = 0usize;
                let mut mixed_accepts = 0usize;
                for (ci, chunk) in inputs.chunks(batch).enumerate() {
                    for (i, p) in chunk.iter().enumerate() {
                        let id = ci * batch + i;
                        let want = oracle_insert(&mut oracle, *p, id);
                        oracle_accepts += usize::from(want);
                        assert_eq!(
                            seq.try_insert_with(*p, || id),
                            want,
                            "seed {seed} batch {batch}: decision on {p:?} (#{id})"
                        );
                        if ci % 2 == 1 {
                            mixed_accepts += usize::from(mixed.try_insert_with(*p, || id));
                        }
                    }
                    bat_accepts += bat.insert_batch_with(chunk, |i| ci * batch + i);
                    if ci % 2 == 0 {
                        mixed_accepts += mixed.insert_batch_with(chunk, |i| ci * batch + i);
                    }
                    assert_eq!(
                        bits(&members(&seq)),
                        bits(&oracle),
                        "seed {seed} batch {batch}: sequential front diverges"
                    );
                    assert_eq!(
                        bits(&members(&bat)),
                        bits(&oracle),
                        "seed {seed} batch {batch}: batched front diverges"
                    );
                    assert_eq!(
                        bits(&members(&mixed)),
                        bits(&oracle),
                        "seed {seed} batch {batch}: interleaved front diverges"
                    );
                }
                assert_eq!(
                    (bat_accepts, mixed_accepts),
                    (oracle_accepts, oracle_accepts),
                    "seed {seed} batch {batch}: acceptance counts differ"
                );
            }
        }
    }

    #[test]
    fn insert_batch_defers_materialization_of_evicted_candidates() {
        let mut f: ParetoFront<&str> = ParetoFront::new();
        let mut built = Vec::new();
        // index 0 is accepted then evicted by index 2; index 1 is
        // dominated outright. Only index 2 may materialize.
        let pts = [
            TradeoffPoint::new(0.5, 5.0),
            TradeoffPoint::new(0.4, 6.0),
            TradeoffPoint::new(0.9, 1.0),
        ];
        let accepted = f.insert_batch_with(&pts, |i| {
            built.push(i);
            "x"
        });
        assert_eq!(accepted, 2, "0 and 2 are accepted at their turn");
        assert_eq!(built, vec![2], "evicted candidate 0 must not materialize");
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn insert_batch_skips_non_finite_candidates() {
        let mut f: ParetoFront<()> = ParetoFront::new();
        let pts = [
            TradeoffPoint::new(f64::NAN, 1.0),
            TradeoffPoint::new(0.9, 10.0),
            TradeoffPoint::new(0.5, f64::INFINITY),
        ];
        assert_eq!(f.insert_batch_with(&pts, |_| ()), 1);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn into_sorted_orders_by_cost() {
        let mut f = ParetoFront::new();
        f.try_insert(TradeoffPoint::new(0.9, 30.0), 1);
        f.try_insert(TradeoffPoint::new(0.5, 10.0), 2);
        f.try_insert(TradeoffPoint::new(0.7, 20.0), 3);
        let sorted = f.into_sorted();
        let costs: Vec<f64> = sorted.iter().map(|(p, _)| p.cost).collect();
        assert_eq!(costs, vec![10.0, 20.0, 30.0]);
    }
}
