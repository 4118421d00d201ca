//! NSGA-II (Deb et al., 2002) over the columnar candidate plane: the
//! classic elitist multi-objective genetic algorithm, added as a second
//! *global* search strategy next to the paper's hill climb so estimator ×
//! algorithm combinations can be compared head-to-head (hypervolume,
//! Table-4-style distances).
//!
//! One generation:
//!
//! 1. rank the parent population by non-dominated sorting, break ties
//!    within a rank by crowding distance;
//! 2. produce offspring by binary tournaments, uniform crossover and
//!    one-gene-expected mutation (the same neighbourhood move as
//!    Algorithm 1, applied per gene with probability `1/slots`);
//! 3. estimate the offspring in one columnar
//!    [`Estimator::estimate_slice`] call;
//! 4. environmental selection: keep the best `POP` of parents ∪ offspring
//!    by `(rank, crowding)`.
//!
//! Every estimated candidate is also offered to a global
//! [`ParetoFront`], so the returned front reflects the whole search
//! trajectory (like the hill climb's `ParetoInsert`), not just the final
//! population. Candidate genomes live in two reused [`ConfigBatch`]
//! arenas (parents and offspring) — the generation loop performs **zero
//! per-candidate heap allocations**; a `Configuration` is materialized
//! only when a candidate actually enters the global front.
//!
//! Determinism: the algorithm is a pure function of `(space, estimator,
//! seed, max_evals)`. It runs single-threaded on top of the (internally
//! parallel, thread-invariant) batched estimator, so
//! [`super::SearchOptions::threads`] never changes the result.

use super::phase::{Phase, PhaseTimer};
use super::{ConfigBatch, Estimator};
use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Population size. Fixed (like the hill climb's round size) so results
/// depend only on the semantic options.
const POP: usize = 64;

/// Scratch buffers reused across generations.
struct Scratch {
    /// Minimization objectives `(-qor, cost)` of the combined pool.
    objs: Vec<(f64, f64)>,
    /// Pareto rank per pool member (0 = non-dominated).
    rank: Vec<usize>,
    /// Crowding distance per pool member.
    crowd: Vec<f64>,
    /// Index ordering buffer.
    order: Vec<usize>,
    /// Selected pool indices for the next parent population.
    selected: Vec<usize>,
    /// Staircase of per-rank minimal second objectives for the 2-D
    /// non-dominated sweep (non-decreasing across ranks).
    stairs: Vec<f64>,
}

impl Scratch {
    fn with_capacity(cap: usize) -> Self {
        Scratch {
            objs: Vec::with_capacity(cap),
            rank: Vec::with_capacity(cap),
            crowd: Vec::with_capacity(cap),
            order: Vec::with_capacity(cap),
            selected: Vec::with_capacity(cap),
            stairs: Vec::with_capacity(cap),
        }
    }
}

/// Non-dominated sorting + crowding over `objs` (minimize both; finite —
/// model estimates always are), filling `rank` and `crowd`.
///
/// The canonical front number of a member is the length of the longest
/// strict-dominance chain ending at it — a property of the point set,
/// identical for every correct peeling. In two objectives it is
/// computable in **one lexicographic sweep**: process members sorted by
/// `(obj0, obj1)`; every earlier member has `obj0 <=` ours, so it
/// strictly dominates us iff its `obj1 <=` ours and it is not an exact
/// duplicate. Keeping a staircase `stairs[r]` = minimal `obj1` of the
/// rank-`r` members seen so far (non-decreasing in `r`: a rank-`r`
/// member has a rank-`r-1` dominator at most as large in `obj1`), the
/// rank is the first stair above our `obj1` — one `partition_point`
/// instead of the classic O(n²) dominance matrix. Exact duplicates are
/// processed as one run so they share a rank instead of dominating each
/// other. No per-generation allocation once the arenas reach pool size.
fn rank_and_crowd(s: &mut Scratch) {
    let n = s.objs.len();
    s.rank.clear();
    s.rank.resize(n, usize::MAX);
    s.crowd.clear();
    s.crowd.resize(n, 0.0);
    s.order.clear();
    s.order.extend(0..n);
    {
        let objs = &s.objs;
        s.order.sort_by(|&a, &b| {
            objs[a]
                .0
                .total_cmp(&objs[b].0)
                .then_with(|| objs[a].1.total_cmp(&objs[b].1))
        });
    }
    s.stairs.clear();
    let mut current = 0;
    let mut i = 0;
    while i < n {
        let p = s.objs[s.order[i]];
        // run of exact duplicates: same dominators, one shared rank
        let mut j = i + 1;
        while j < n && s.objs[s.order[j]] == p {
            j += 1;
        }
        let r = s.stairs.partition_point(|&y| y <= p.1);
        if r == s.stairs.len() {
            s.stairs.push(p.1);
        } else {
            s.stairs[r] = p.1; // partition guarantees stairs[r] > p.1
        }
        for &k in &s.order[i..j] {
            s.rank[k] = r;
        }
        current = current.max(r + 1);
        i = j;
    }
    // Crowding distance within each front, per objective.
    for front in 0..current {
        s.order.clear();
        s.order.extend((0..n).filter(|&i| s.rank[i] == front));
        let m = s.order.len();
        if m <= 2 {
            for &i in &s.order {
                s.crowd[i] = f64::INFINITY;
            }
            continue;
        }
        for obj in 0..2 {
            let key = |i: usize| if obj == 0 { s.objs[i].0 } else { s.objs[i].1 };
            s.order.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
            let lo = key(s.order[0]);
            let hi = key(s.order[m - 1]);
            let span = (hi - lo).max(1e-300);
            s.crowd[s.order[0]] = f64::INFINITY;
            s.crowd[s.order[m - 1]] = f64::INFINITY;
            for w in 1..m - 1 {
                let i = s.order[w];
                if s.crowd[i].is_finite() {
                    s.crowd[i] += (key(s.order[w + 1]) - key(s.order[w - 1])) / span;
                }
            }
        }
    }
}

/// `(rank, crowding)` comparison: lower rank wins, then larger crowding.
/// Ties (identical rank and crowding) keep the first argument — fully
/// deterministic.
fn better(s: &Scratch, a: usize, b: usize) -> bool {
    if s.rank[a] != s.rank[b] {
        return s.rank[a] < s.rank[b];
    }
    s.crowd[a] > s.crowd[b]
}

/// NSGA-II with crowding distance: `opts.max_evals` estimates in
/// generations of [`POP`] offspring.
pub(crate) fn search(
    space: &ConfigSpace,
    estimator: &dyn Estimator,
    opts: &super::SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    let mut sp = autoax_telemetry::span("search.nsga2");
    sp.field("max_evals", opts.max_evals);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let stride = space.slot_count();
    let pop = POP.min(opts.max_evals.max(2));
    let mut global: ParetoFront<Configuration> = ParetoFront::new();

    let mut t = PhaseTimer::start(Phase::Propose);
    let mut parents = ConfigBatch::with_capacity(stride, pop);
    for _ in 0..pop {
        space.random_into(parents.push_row(), &mut rng);
    }
    let mut par_pts: Vec<TradeoffPoint> = Vec::with_capacity(pop);
    super::estimate_round(estimator, &parents, None, &mut par_pts, &mut t);
    t.next(Phase::Insert);
    offer_all(&mut global, &parents, &par_pts);
    drop(t);
    let mut evals = pop;

    let mut offspring = ConfigBatch::with_capacity(stride, pop);
    let mut off_pts: Vec<TradeoffPoint> = Vec::with_capacity(pop);
    let mut next = ConfigBatch::with_capacity(stride, pop);
    let mut next_pts: Vec<TradeoffPoint> = Vec::with_capacity(pop);
    let mut s = Scratch::with_capacity(2 * pop);
    let pm = 1.0 / stride as f64;

    while evals < opts.max_evals && !cancel.is_cancelled() {
        let r = pop.min(opts.max_evals - evals);
        // Rank the current parents for tournament selection.
        let mut t = PhaseTimer::start(Phase::Propose);
        s.objs.clear();
        s.objs.extend(par_pts.iter().map(|p| (-p.qor, p.cost)));
        rank_and_crowd(&mut s);
        // Offspring: tournament → uniform crossover → per-gene mutation.
        offspring.clear();
        for _ in 0..r {
            let pick = |rng: &mut StdRng, s: &Scratch| {
                let a = rng.gen_range(0..pop);
                let b = rng.gen_range(0..pop);
                if better(s, b, a) {
                    b
                } else {
                    a
                }
            };
            let pa = pick(&mut rng, &s);
            let pb = pick(&mut rng, &s);
            let child = offspring.push_row();
            for (g, (x, y)) in child
                .iter_mut()
                .zip(parents.row(pa).iter().zip(parents.row(pb).iter()))
            {
                *g = if rng.gen_bool(0.5) { *x } else { *y };
            }
            for (slot, g) in child.iter_mut().enumerate() {
                if rng.gen_bool(pm) {
                    let n = space.slots()[slot].members.len();
                    *g = rng.gen_range(0..n) as u16;
                }
            }
        }
        off_pts.clear();
        super::estimate_round(estimator, &offspring, None, &mut off_pts, &mut t);
        // The global front's insert and the environmental selection are
        // one insert phase.
        t.next(Phase::Insert);
        offer_all(&mut global, &offspring, &off_pts);
        evals += r;

        // Environmental selection over parents ∪ offspring.
        s.objs.clear();
        s.objs.extend(par_pts.iter().map(|p| (-p.qor, p.cost)));
        s.objs.extend(off_pts.iter().map(|p| (-p.qor, p.cost)));
        rank_and_crowd(&mut s);
        let total = pop + r;
        s.selected.clear();
        s.selected.extend(0..total);
        // Stable sort by (rank asc, crowding desc): equal keys keep
        // pool order (parents before offspring), so selection is
        // deterministic.
        let (ranks, crowds) = (&s.rank, &s.crowd);
        s.selected.sort_by(|&a, &b| {
            ranks[a]
                .cmp(&ranks[b])
                .then_with(|| crowds[b].total_cmp(&crowds[a]))
        });
        s.selected.truncate(pop);
        next.clear();
        next_pts.clear();
        for &i in &s.selected {
            if i < pop {
                next.push_genes(parents.row(i));
                next_pts.push(par_pts[i]);
            } else {
                next.push_genes(offspring.row(i - pop));
                next_pts.push(off_pts[i - pop]);
            }
        }
        std::mem::swap(&mut parents, &mut next);
        std::mem::swap(&mut par_pts, &mut next_pts);
    }
    global
}

/// Offers every estimated candidate to the global front in one batched
/// insert (insertion order = batch order; configurations materialize only
/// for candidates still on the front after the whole slab).
fn offer_all(global: &mut ParetoFront<Configuration>, batch: &ConfigBatch, pts: &[TradeoffPoint]) {
    global.insert_batch_with(pts, |i| batch.to_configuration(i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testutil::{needle_estimator as needle, snapshot, toy_space};
    use crate::search::{run_search, SearchAlgo, SearchOptions};

    /// NSGA-II options: `max_evals` estimates from `seed`.
    fn nsga2(max_evals: usize, seed: u64) -> SearchOptions {
        SearchOptions {
            strategy: SearchAlgo::Nsga2,
            max_evals,
            seed,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn deterministic_given_seed_and_invariant_to_throughput_knobs() {
        let space = toy_space(5, 6);
        let run = |threads: usize| {
            run_search(
                &space,
                &needle,
                &SearchOptions {
                    threads,
                    ..nsga2(3_000, 21)
                },
            )
        };
        let reference = snapshot(&run(1));
        assert!(!reference.is_empty());
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                reference,
                snapshot(&run(threads)),
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn different_seeds_explore_different_trajectories() {
        let space = toy_space(5, 6);
        let run = |seed: u64| run_search(&space, &needle, &nsga2(2_000, seed));
        // not a hard requirement of the algorithm, but with a 6^5 space
        // two seeds virtually never retrace each other exactly
        assert_ne!(snapshot(&run(1)), snapshot(&run(2)));
    }

    #[test]
    fn front_members_are_mutually_nondominated() {
        let space = toy_space(4, 5);
        let front = run_search(&space, &needle, &nsga2(2_000, 3));
        let pts = front.points();
        assert!(!pts.is_empty());
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "{a:?} dominates {b:?}");
                }
            }
        }
    }

    #[test]
    fn beats_random_sampling_on_the_needle_landscape() {
        use crate::pareto::joint_hypervolumes;
        let space = toy_space(6, 5);
        let mut nsga_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..3 {
            let opts = nsga2(2_000, seed);
            let random = SearchOptions {
                strategy: SearchAlgo::Random,
                ..opts
            };
            let a = run_search(&space, &needle, &opts).points();
            let b = run_search(&space, &needle, &random).points();
            let hv = joint_hypervolumes(&[&a, &b]);
            nsga_total += hv[0];
            rs_total += hv[1];
        }
        assert!(
            nsga_total >= rs_total,
            "nsga2 hypervolume {nsga_total} below random sampling {rs_total}"
        );
    }

    #[test]
    fn tiny_budget_still_returns_a_front() {
        let space = toy_space(3, 4);
        // a budget below the population size
        let front = run_search(&space, &needle, &nsga2(10, 1));
        assert!(!front.is_empty());
    }

    #[test]
    fn rank_and_crowd_hand_checked() {
        let mut s = Scratch::with_capacity(4);
        s.objs
            .extend([(0.0, 3.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        rank_and_crowd(&mut s);
        // (0,3) and (1,1) are mutually non-dominated: rank 0.
        // (2,2) is dominated by (1,1): rank 1. (3,3) by both: rank 1 too
        // ((2,2) dominates (3,3)? 2<=3, 2<=3, strict -> yes, so rank 2).
        assert_eq!(s.rank, vec![0, 0, 1, 2]);
        // two-member fronts get infinite crowding
        assert!(s.crowd[0].is_infinite() && s.crowd[1].is_infinite());
    }

    #[test]
    fn fast_sort_matches_reference_front_peeling() {
        // Oracle: the straightforward peel (repeatedly extract the
        // non-dominated members of the unranked remainder). The fast
        // bitset sort must assign identical canonical ranks — ties,
        // duplicates and long dominance chains included.
        let dominates =
            |a: (f64, f64), b: (f64, f64)| a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1);
        let reference_ranks = |objs: &[(f64, f64)]| -> Vec<usize> {
            let n = objs.len();
            let mut rank = vec![usize::MAX; n];
            let mut assigned = 0;
            let mut current = 0;
            while assigned < n {
                let front: Vec<usize> = (0..n)
                    .filter(|&i| rank[i] == usize::MAX)
                    .filter(|&i| {
                        !(0..n)
                            .any(|j| j != i && rank[j] == usize::MAX && dominates(objs[j], objs[i]))
                    })
                    .collect();
                for &i in &front {
                    rank[i] = current;
                    assigned += 1;
                }
                current += 1;
            }
            rank
        };
        let mut st = 2019u64;
        let mut next = |m: u64| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % m) as f64
        };
        for n in [1usize, 2, 7, 64, 65, 128, 150] {
            // coarse grid => plenty of duplicates and single-axis ties
            let objs: Vec<(f64, f64)> = (0..n).map(|_| (next(9), next(9))).collect();
            let mut s = Scratch::with_capacity(n);
            s.objs.extend(objs.iter().copied());
            rank_and_crowd(&mut s);
            assert_eq!(s.rank, reference_ranks(&objs), "n={n}");
        }
    }
}
