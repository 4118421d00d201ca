//! The seeded job schedule of the `serve_mix` workload.
//!
//! A schedule mixes three kinds of Sobel / Fixed-GF jobs in equal thirds:
//!
//! * **cold** — a master seed no earlier job used: Steps 1–2 run cold;
//! * **warm** — the seed of an earlier cold job with another search
//!   strategy or budget: Steps 1–2 warm-start from the store;
//! * **repeat** — an exact copy of a recent job: served from the result
//!   cache, or absorbed by single-flight when the original is still
//!   running.
//!
//! The shape is fixed — blocks of (cold, repeat, warm) — and the seed
//! draws the contents from balanced pools (half of the cold jobs per
//! workload, every search variant equally often), so schedules of
//! different seeds ask for about the same amount of work.

use std::collections::HashSet;

/// Workloads a job may name (the service registry's catalogue).
pub const WORKLOADS: [&str; 2] = ["sobel", "gaussian"];
/// Strategy and budget of every cold job (the quick-profile defaults).
const COLD_SEARCH: (&str, usize) = ("hill", 3000);
/// Search variants of warm jobs: every strategy × budget pair except the
/// cold jobs' own.
const WARM_SEARCH: [(&str, usize); 8] = [
    ("hill", 2000),
    ("hill", 4000),
    ("nsga2", 2000),
    ("nsga2", 3000),
    ("nsga2", 4000),
    ("random", 2000),
    ("random", 3000),
    ("random", 4000),
];
/// How many blocks back a warm job's parent is, so that with two
/// closed-loop clients the parent has finished and its Step-1/2 entry is
/// in the store.
const WARM_LAG: usize = 2;
/// A repeat copies one of this many most recent jobs; the newest may
/// still be running, which makes the repeat a single-flight follower.
const REPEAT_WINDOW: usize = 4;

/// What a job exercises on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// New master seed: Steps 1–2 run cold.
    Cold,
    /// Known seed, new search knobs: Steps 1–2 warm-start.
    Warm,
    /// Exact repeat: result cache or single-flight.
    Repeat,
}

/// One job descriptor of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// What the job is meant to exercise.
    pub kind: JobKind,
    /// Registry workload name.
    pub workload: &'static str,
    /// Pipeline master seed.
    pub seed: u64,
    /// Step-3 strategy name.
    pub strategy: &'static str,
    /// Step-3 estimate budget.
    pub max_evals: usize,
}

impl Job {
    /// The `POST /jobs` body. It is also the job's identity: equal bodies
    /// must get equal front digests.
    pub fn body(&self) -> String {
        format!(
            r#"{{"workload":"{}","library":"tiny","seed":{},"strategy":"{}","max_evals":{}}}"#,
            self.workload, self.seed, self.strategy, self.max_evals
        )
    }
}

/// SplitMix64: a tiny, dependency-free, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded Fisher–Yates shuffle of `items`.
fn shuffled<T>(mut items: Vec<T>, rng: &mut SplitMix64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

/// The schedule of `n` jobs for `seed`: blocks of a cold job, a repeat of
/// one of the last [`REPEAT_WINDOW`] jobs and a warm job whose parent is
/// the cold job [`WARM_LAG`] blocks back (the first cold job for the
/// first blocks), cut to `n` jobs.
pub fn schedule(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E_D15C_0000_0000);
    let blocks = n.div_ceil(3);
    let workloads = shuffled(
        (0..blocks)
            .map(|i| WORKLOADS[i % WORKLOADS.len()])
            .collect(),
        &mut rng,
    );
    let variants = shuffled(
        (0..blocks)
            .map(|i| WARM_SEARCH[i % WARM_SEARCH.len()])
            .collect(),
        &mut rng,
    );
    let mut jobs: Vec<Job> = Vec::with_capacity(3 * blocks);
    let mut cold: Vec<usize> = Vec::with_capacity(blocks);
    let mut used_seeds: HashSet<(&str, u64)> = HashSet::new();
    let mut used_specs: HashSet<String> = HashSet::new();
    for (block, workload) in workloads.into_iter().enumerate() {
        let seed = loop {
            let s = 1 + rng.next_u64() % 1_000_000;
            if used_seeds.insert((workload, s)) {
                break s;
            }
        };
        cold.push(jobs.len());
        jobs.push(Job {
            kind: JobKind::Cold,
            workload,
            seed,
            strategy: COLD_SEARCH.0,
            max_evals: COLD_SEARCH.1,
        });

        let back = 1 + rng.below(REPEAT_WINDOW.min(jobs.len()));
        jobs.push(Job {
            kind: JobKind::Repeat,
            ..jobs[jobs.len() - back].clone()
        });

        let parent = jobs[cold[block.saturating_sub(WARM_LAG)]].clone();
        // A parent that hosts several warm jobs gets a new variant each.
        let warm = (0..WARM_SEARCH.len())
            .map(|k| {
                let v = WARM_SEARCH[(WARM_SEARCH
                    .iter()
                    .position(|w| *w == variants[block])
                    .expect("variants come from WARM_SEARCH")
                    + k)
                    % WARM_SEARCH.len()];
                Job {
                    kind: JobKind::Warm,
                    strategy: v.0,
                    max_evals: v.1,
                    ..parent.clone()
                }
            })
            .find(|j| !used_specs.contains(&j.body()))
            .expect("a parent hosts at most WARM_LAG + 1 warm jobs");
        used_specs.insert(warm.body());
        jobs.push(warm);
    }
    jobs.truncate(n);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(jobs: &[Job], kind: JobKind) -> usize {
        jobs.iter().filter(|j| j.kind == kind).count()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(schedule(7, 120), schedule(7, 120));
        assert_ne!(schedule(7, 120), schedule(8, 120));
    }

    #[test]
    fn kinds_come_in_thirds() {
        for seed in 0..20 {
            let jobs = schedule(seed, 120);
            assert_eq!(jobs.len(), 120);
            assert_eq!(count(&jobs, JobKind::Cold), 40, "seed {seed}");
            assert_eq!(count(&jobs, JobKind::Warm), 40, "seed {seed}");
            assert_eq!(count(&jobs, JobKind::Repeat), 40, "seed {seed}");
        }
        let small = schedule(3, 6);
        assert_eq!(count(&small, JobKind::Cold), 2);
        assert_eq!(count(&small, JobKind::Warm), 2);
        assert_eq!(count(&small, JobKind::Repeat), 2);
    }

    #[test]
    fn kinds_mean_what_they_say() {
        for seed in 0..20 {
            let jobs = schedule(seed, 120);
            assert_eq!(jobs[0].kind, JobKind::Cold);
            for (i, job) in jobs.iter().enumerate() {
                let earlier = &jobs[..i];
                let same_seed = |j: &&Job| (j.workload, j.seed) == (job.workload, job.seed);
                let same_body = |j: &&Job| j.body() == job.body();
                match job.kind {
                    JobKind::Cold => assert!(!earlier.iter().any(|j| same_seed(&j))),
                    JobKind::Warm => {
                        let parent = earlier
                            .iter()
                            .position(|j| j.kind == JobKind::Cold && same_seed(&j))
                            .expect("warm job without a cold parent");
                        assert!(i < 9 || parent + 6 <= i, "parent too recent");
                        assert!(!earlier.iter().any(|j| same_body(&j)));
                    }
                    JobKind::Repeat => assert!(earlier[i - REPEAT_WINDOW.min(i)..]
                        .iter()
                        .any(|j| same_body(&j))),
                }
            }
        }
    }

    #[test]
    fn pools_are_balanced() {
        for seed in 0..20 {
            let jobs = schedule(seed, 120);
            let cold: Vec<&Job> = jobs.iter().filter(|j| j.kind == JobKind::Cold).collect();
            for w in WORKLOADS {
                assert_eq!(cold.iter().filter(|j| j.workload == w).count(), 20);
            }
            for v in WARM_SEARCH {
                let n = jobs
                    .iter()
                    .filter(|j| j.kind == JobKind::Warm && (j.strategy, j.max_evals) == v)
                    .count();
                assert!(
                    (4..=6).contains(&n),
                    "seed {seed}: variant {v:?} used {n} times"
                );
            }
        }
    }

    #[test]
    fn body_is_the_wire_descriptor() {
        let job = Job {
            kind: JobKind::Cold,
            workload: "sobel",
            seed: 12,
            strategy: "hill",
            max_evals: 3000,
        };
        assert_eq!(
            job.body(),
            r#"{"workload":"sobel","library":"tiny","seed":12,"strategy":"hill","max_evals":3000}"#
        );
    }
}
