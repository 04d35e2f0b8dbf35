//! Seeded input generation for the four workloads.
//!
//! The `deduce` and `cegis` lists are made of *blocks* of about 50
//! requests: the workload's slowest problem once, and two rounds that each
//! hold every named suite problem of the workload and a fixed number of
//! draws from its generator families. The seed chooses the family
//! parameters (bounds, constants) and the order within each block. Every
//! block thus asks for nearly the same work, whatever the seed: a
//! time-boxed run stops after some prefix of the list, and the median block
//! is a steady measure of throughput.

use std::collections::BTreeMap;
use sygus_benchmarks::Benchmark;

/// SplitMix64: a tiny, well-mixed generator, so inputs depend only on the
/// seed and never on the platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one use of the run's seed, named by `label`, so
    /// that different uses draw independent streams.
    pub fn seeded(seed: u64, label: &str) -> Rng {
        let mut d = Digest::default();
        d.add(label);
        Rng(seed ^ d.value())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi` (modulo bias is irrelevant at these
    /// ranges).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a, 64-bit: the digest printed for inputs and answers, so two runs
/// can show they used identical inputs and produced identical answers.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The four workloads. All are closed loops with one client: the next
/// request is sent only after the previous one returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-invocation CLIA problems that deduction solves outright.
    /// Deduction and its SMT side-condition checks do almost all the work
    /// and fixed-height enumeration does none; the median request is well
    /// under a millisecond, so parse and certify overhead shows.
    Deduce,
    /// Invariant and custom-grammar (`qm`) problems. Fixed-height CEGIS
    /// over persistent SMT sessions does most of the work: the
    /// difference-logic engine for the invariants, concrete enumeration
    /// for the `qm` grammars. Deduction fails fast here.
    Cegis,
    /// The suite's misses and its slowest solved problems at a 2 s limit.
    /// SAT and theory search take nearly all the time, and this is the only
    /// workload with timeouts: search-core changes show in `ok_frac` and
    /// `par2_s`.
    Hard,
    /// Certification of (problem, answer) pairs: genuine solver answers
    /// and seeded mutants that a concrete point refutes. It drives the SMT
    /// layer the other way round, as validity proofs with proof replay and
    /// counterexample models, so a change that speeds synthesis but slows
    /// proofs shows here.
    Certify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Deduce,
        Workload::Cegis,
        Workload::Hard,
        Workload::Certify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Deduce => "deduce",
            Workload::Cegis => "cegis",
            Workload::Hard => "hard",
            Workload::Certify => "certify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Blocks per synthesis list: a 25 s run gets through about half of the
/// `deduce` list and a third of the `cegis` list.
const BLOCKS: usize = 100;

/// The hard list: seven of the suite's thirteen misses (the two smallest
/// `array_search` instances, the smallest unsolved `staircase`, and every
/// other miss), then the six slowest problems the solver does solve. The
/// larger `array_search` and `staircase` instances are left out so that one
/// pass takes under 20 s; a search change that solves them would solve the
/// smaller ones first.
pub const HARD: [&str; 13] = [
    "array_search_2",
    "array_search_3",
    "staircase_3",
    "strided_walk_3",
    "strided_walk_7",
    "phase_split",
    "qm_second_max3",
    "staircase_2",
    "nonneg_proxy",
    "qm_max3",
    "qm_max4",
    "max7",
    "max8",
];

const DEDUCE_NAMED: [&str; 12] = [
    "min2",
    "min3",
    "min4",
    "min5",
    "linear_comb_1",
    "linear_comb_2",
    "linear_comb_3",
    "linear_comb_4",
    "abs_diff",
    "sign",
    "max_of_abs",
    "tie_breaker",
];

/// Invariant problems of the suite that always solve well inside the
/// limit, but for the slowest, `two_counters_double` (the slow and
/// unsolved ones belong to `hard`). `drifting_bounds` is left out: it is
/// slower still, and slows down twice as much as the rest when other work
/// contends for the core, which made it a noisy p99.
const CEGIS_INV_NAMED: [&str; 16] = [
    "even_keeper",
    "saturating_loop",
    "disjunctive_islands",
    "translation_pair",
    "widening_gap",
    "stay_in_box",
    "cond_update",
    "jump_or_walk",
    "bounded_difference",
    "chase_no_overtake",
    "mirrored_counters",
    "sum_nonneg",
    "three_vars_conserved",
    "guarded_pair_walk",
    "strided_walk_1",
    "two_phase",
];

/// The suite's `qm` problems that always solve well inside the limit, but
/// `qm_max2_constraints`, which asks for the same function as `qm_max2`.
const CEGIS_QM_NAMED: [&str; 6] = [
    "qm_relu",
    "qm_clip_low",
    "qm_abs",
    "qm_min2",
    "qm_max2",
    "qm_nested_reference",
];

/// The suite's benchmarks by name.
pub struct Suite(BTreeMap<String, Benchmark>);

impl Suite {
    pub fn load() -> Suite {
        Suite(
            sygus_benchmarks::suite()
                .into_iter()
                .map(|b| (b.name.clone(), b))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> Benchmark {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("suite has no problem named {name}"))
            .clone()
    }
}

/// The synthesis inputs of a workload (`certify` draws its problems from
/// the `deduce` and `cegis` lists).
pub fn synthesis_inputs(workload: Workload, seed: u64, suite: &Suite) -> Vec<Benchmark> {
    let mut rng = Rng::seeded(seed, workload.name());
    match workload {
        Workload::Deduce => deduce(&mut rng, suite),
        Workload::Cegis => cegis(&mut rng, suite),
        Workload::Hard => {
            let mut list: Vec<Benchmark> = HARD.iter().map(|n| suite.get(n)).collect();
            rng.shuffle(&mut list);
            list
        }
        Workload::Certify => unreachable!("certify inputs are built from answers"),
    }
}

/// Requests per block: the unit over which throughput is timed. `hard`
/// and `certify` have no blocks; one pass over their list is the unit.
pub fn block_len(workload: Workload) -> Option<usize> {
    match workload {
        Workload::Deduce => Some(1 + 2 * (4 + 9 + DEDUCE_NAMED.len())),
        Workload::Cegis => Some(1 + 2 * (1 + CEGIS_INV_NAMED.len() + CEGIS_QM_NAMED.len())),
        Workload::Hard | Workload::Certify => None,
    }
}

/// A block holds the workload's slowest problem once and two rounds of
/// everything else. The slowest problem is then 2% of the requests, so the
/// p99 latency falls in the middle of its band, not on the edge between
/// two problems where a small shift moves it a lot. The rounds are sized so
/// that a block's median request falls inside a band of near-equal
/// problems too (`mid_select` on `deduce`, `chase_no_overtake` and
/// `bounded_difference` on `cegis`).
fn blocks(
    rng: &mut Rng,
    slowest: &Benchmark,
    mut round: impl FnMut(&mut Rng) -> Vec<Benchmark>,
) -> Vec<Benchmark> {
    (0..BLOCKS)
        .flat_map(|_| {
            let mut b = vec![slowest.clone()];
            b.extend(round(rng));
            b.extend(round(rng));
            rng.shuffle(&mut b);
            b
        })
        .collect()
}

/// One `deduce` round: `max_n` for n in 2..=5, three each of `clamp`,
/// `median_like` and `guarded_arith` with seeded parameters, and every
/// named CLIA problem. The slowest problem is `max6`.
fn deduce(rng: &mut Rng, suite: &Suite) -> Vec<Benchmark> {
    blocks(rng, &sygus_benchmarks::max_n(6), |rng| {
        let mut round: Vec<Benchmark> = (2..=5).map(sygus_benchmarks::max_n).collect();
        for _ in 0..3 {
            round.push(sygus_benchmarks::clamp(rng.range(2, 30) as usize));
            round.push(sygus_benchmarks::median_like(rng.range(2, 30) as usize));
            let tier = rng.range(1, 5) as u32;
            round.push(sygus_benchmarks::guarded_arith(tier, rng.range(1, 200)));
        }
        round.extend(DEDUCE_NAMED.iter().map(|n| suite.get(n)));
        round
    })
}

/// One `cegis` round: a `counter_to` loop (first round of a block) or a
/// `countdown` loop (second round) with a seeded bound, and every named
/// invariant and `qm` problem. The slowest problem is
/// `two_counters_double`.
fn cegis(rng: &mut Rng, suite: &Suite) -> Vec<Benchmark> {
    let mut rounds = 0;
    blocks(rng, &suite.get("two_counters_double"), |rng| {
        rounds += 1;
        let bound = rng.range(1, 1000);
        let mut round = vec![if rounds % 2 == 1 {
            sygus_benchmarks::counter_to(bound, 1)
        } else {
            sygus_benchmarks::countdown(bound, 1)
        }];
        round.extend(
            CEGIS_INV_NAMED
                .iter()
                .chain(&CEGIS_QM_NAMED)
                .map(|n| suite.get(n)),
        );
        round
    })
}
