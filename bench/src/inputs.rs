//! Seed → inputs, as plain data. The system under test receives only
//! what is generated here (through `sut.rs`); the independent reference
//! in `reference.rs` reads the same data. `rkd_testkit::rng` is support
//! code shared with the repo's tests, not a layer under measurement.

use rkd_testkit::rng::{splitmix64_mix, Rng, SeedableRng, SliceRandom, StdRng};

pub const DEFAULT_SEED: u64 = 2021;

/// An independent generator per (seed, purpose), so adding a draw to one
/// input never shifts another.
pub fn rng_for(seed: u64, purpose: &str) -> StdRng {
    let tag = purpose
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| fnv_step(h, b as u64));
    StdRng::seed_from_u64(splitmix64_mix(seed ^ tag))
}

fn fnv_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over 64-bit words: the input checksum stamped into the output.
pub fn checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv_step)
}

// ---------------------------------------------------------------------
// prefetch_video
// ---------------------------------------------------------------------

/// Shape of the video-resize trace (paper Table 1, case study #1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VideoShape {
    /// Source rows per frame; 63 × 4 pages is Table 1's shape.
    pub src_rows: usize,
    pub pages_per_row: usize,
    /// Frames in one pass of the trace (one `mem::sim::run` call).
    pub frames: usize,
    /// Added to every page number: where the buffers were mapped.
    pub base_page: u64,
}

/// Frames per pass: 10 frames × (21 rows × 4 reads + 21 writes) = 1,050
/// accesses at the default shape, a quarter of Table 1's 40-frame trace.
/// Short passes let the runner cut slices of equal length.
const VIDEO_FRAMES: usize = 10;

/// Table 1's 63 × 4 frame at a seeded base page. The seed does not pick
/// the frame height: 60, 63, 66 and 69 rows differ by five points of
/// coverage and a tenth of throughput, which would read as noise
/// between seeds; where the buffers are mapped changes every page
/// number and nothing the prefetcher can learn.
pub fn video_shape(seed: u64) -> VideoShape {
    VideoShape {
        src_rows: 63,
        pages_per_row: 4,
        frames: VIDEO_FRAMES,
        // Whole 256-page blocks, so the page-position feature
        // (page mod 256) sees the same structure at any base.
        base_page: rng_for(seed, "video").gen_range(0..4096u64) * 256,
    }
}

// ---------------------------------------------------------------------
// sched_mlp
// ---------------------------------------------------------------------

/// Seed of the CFS decision log and of the MLP trained on it, whatever
/// `--seed` is. The trainer is not seed-stable — about one init in ten
/// mimics CFS below 98 % (Table 2's note on seed 42 says the same) — so
/// a seeded model would make `decision_quality_pct` differ by points
/// between seeds and hide a half-point loss. `--seed` permutes the order
/// in which the logged decisions are replayed instead.
pub const SCHED_MODEL_SEED: u64 = DEFAULT_SEED;

// ---------------------------------------------------------------------
// zipf_flows
// ---------------------------------------------------------------------

pub const FLOW_POPULATION: usize = 65_536;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Events pre-generated per run and replayed round-robin. 2^21 events
/// are 2,000 times the decision cache, so wrapping is invisible to it.
pub const FLOW_POOL: usize = 1 << 21;
pub const BATCH: usize = 256;
pub const IN_FLIGHT: usize = 4;

pub const N_EXACT: usize = 4_096;
pub const N_LPM: usize = 256;
pub const N_TERNARY: usize = 256;
pub const N_RANGE: usize = 32;

/// Context of one event: `[flow, addr, port]`. `addr` and `port` are
/// functions of the flow id, so a flow is one decision-cache key.
pub fn flow_fields(flow: u64) -> [i64; 3] {
    let addr = splitmix64_mix(flow ^ 0xA5A5_0000_1111_2222);
    let port = splitmix64_mix(flow ^ 0x5A5A_3333_4444_5555) & 0xFFFF;
    [flow as i64, addr as i64, port as i64]
}

#[derive(Clone, Copy, Debug)]
pub struct LpmRule {
    pub value: u64,
    pub len: u8,
    pub priority: u32,
    pub arg: i64,
}

#[derive(Clone, Copy, Debug)]
pub struct TernaryRule {
    /// `(value, mask)` for `addr` then `port`.
    pub parts: [(u64, u64); 2],
    pub priority: u32,
    pub arg: i64,
}

#[derive(Clone, Copy, Debug)]
pub struct RangeRule {
    pub lo: u64,
    pub hi: u64,
    pub priority: u32,
    pub arg: i64,
}

/// The entries of the 4-table pipeline, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Rules {
    /// Exact over `flow`: `(flow, arg)`.
    pub exact: Vec<(u64, i64)>,
    /// Longest prefix over `addr`.
    pub lpm: Vec<LpmRule>,
    /// Value/mask over `(addr, port)`, highest priority wins.
    pub ternary: Vec<TernaryRule>,
    /// Inclusive span over `port`, highest priority wins.
    pub range: Vec<RangeRule>,
}

/// Builds the pipeline's entries. `population` is the flow ids by
/// popularity rank; rules are anchored on real flows so every table
/// sees both hits and misses.
pub fn rules(seed: u64, population: &[u64]) -> Rules {
    let mut rng = rng_for(seed, "rules");
    let mut ranks: Vec<usize> = (0..population.len()).collect();
    ranks.shuffle(&mut rng);
    let mut r = Rules::default();
    for (i, &rank) in ranks.iter().take(N_EXACT).enumerate() {
        r.exact.push((population[rank], 10_000 + i as i64));
    }
    let mut seen = std::collections::BTreeSet::new();
    while r.lpm.len() < N_LPM {
        let flow = population[rng.gen_range(0..population.len())];
        // Every prefix length from /4 to /20, whatever the seed: the
        // number of strata the index probes is part of the workload.
        let len = 4 + (r.lpm.len() % 17) as u8;
        let addr = flow_fields(flow)[1] as u64;
        let value = addr >> (64 - len) << (64 - len);
        if seen.insert((value, len)) {
            let i = r.lpm.len();
            r.lpm.push(LpmRule {
                value,
                len,
                priority: i as u32,
                arg: 20_000 + i as i64,
            });
        }
    }
    // Eight mask shapes: the tuple-space index groups entries by mask.
    let masks: Vec<(u64, u64)> = (0..8u32)
        .map(|g| {
            (
                0xFFu64 << (56 - 4 * g) | 0xF << (8 * (g % 4)),
                0xFu64 << (g % 12),
            )
        })
        .collect();
    for i in 0..N_TERNARY {
        let flow = population[rng.gen_range(0..population.len())];
        let [_, addr, port] = flow_fields(flow);
        let (am, pm) = masks[i % masks.len()];
        r.ternary.push(TernaryRule {
            parts: [(addr as u64 & am, am), (port as u64 & pm, pm)],
            priority: (N_TERNARY - i) as u32,
            arg: 30_000 + i as i64,
        });
    }
    for i in 0..N_RANGE {
        let lo = rng.gen_range(0..60_000u64);
        r.range.push(RangeRule {
            lo,
            hi: lo + rng.gen_range(16..4_096u64),
            priority: i as u32,
            arg: 40_000 + i as i64,
        });
    }
    r
}

impl Rules {
    pub fn checksum_words(&self) -> impl Iterator<Item = u64> + '_ {
        let exact = self.exact.iter().flat_map(|&(f, a)| [f, a as u64]);
        let lpm = self
            .lpm
            .iter()
            .flat_map(|l| [l.value, l.len as u64, l.priority as u64, l.arg as u64]);
        let ternary = self.ternary.iter().flat_map(|t| {
            let [(av, am), (pv, pm)] = t.parts;
            [av, am, pv, pm, t.priority as u64, t.arg as u64]
        });
        let range = self
            .range
            .iter()
            .flat_map(|g| [g.lo, g.hi, g.priority as u64, g.arg as u64]);
        exact.chain(lpm).chain(ternary).chain(range)
    }
}

// ---------------------------------------------------------------------
// ctrl_churn
// ---------------------------------------------------------------------

pub const CHAIN_STAGES: usize = 8;
/// Fires between two mutations.
pub const FIRES_PER_MUTATION: usize = 8;
/// Every n-th iteration pushes a model / reinstalls the DSL program.
pub const UPDATE_MODEL_EVERY: u64 = 64;
pub const REINSTALL_EVERY: u64 = 4_096;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `keys[i]` routes stage `i` (1..8) of the tail-call chain: link
    /// `i-1` stores it, table `i` matches it.
    pub keys: [i64; CHAIN_STAGES],
    /// `(table, key)` inserted then removed, cycled. Keys never equal a
    /// chain key, so the chain's verdicts are constant.
    pub churn: Vec<(u16, u64)>,
}

pub fn churn_plan(seed: u64) -> ChurnPlan {
    let mut rng = rng_for(seed, "churn");
    let mut pool: Vec<i64> = (1..=512).collect();
    pool.shuffle(&mut rng);
    let mut keys = [0i64; CHAIN_STAGES];
    keys.copy_from_slice(&pool[..CHAIN_STAGES]);
    let mut churn: Vec<(u16, u64)> = (0..64)
        .map(|i| ((1 + i % (CHAIN_STAGES - 1)) as u16, 1_000 + i as u64))
        .collect();
    churn.shuffle(&mut rng);
    ChurnPlan { keys, churn }
}

impl ChurnPlan {
    /// The chain's verdicts: stage `i` returns `10 + i`.
    pub fn expected_verdicts(&self) -> Vec<(u16, i64)> {
        (0..CHAIN_STAGES)
            .map(|i| (i as u16, 10 + i as i64))
            .collect()
    }

    pub fn checksum_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys
            .iter()
            .map(|&k| k as u64)
            .chain(self.churn.iter().flat_map(|&(t, k)| [t as u64, k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_is_table_one_shape_at_its_own_base() {
        let (a, b) = (video_shape(DEFAULT_SEED), video_shape(7));
        assert_eq!((a.src_rows, a.pages_per_row), (63, 4));
        assert_eq!((b.src_rows, b.pages_per_row), (63, 4));
        assert_ne!(a.base_page, b.base_page);
        assert_eq!(a.base_page % 256, 0);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let population: Vec<u64> = (0..FLOW_POPULATION as u64)
            .map(|r| splitmix64_mix(r + 99))
            .collect();
        let sum = |seed| {
            (
                checksum(rules(seed, &population).checksum_words()),
                checksum(churn_plan(seed).checksum_words()),
            )
        };
        assert_eq!(sum(7), sum(7));
        let (a, b) = (sum(7), sum(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_eq!(churn_plan(7), churn_plan(7));
    }

    #[test]
    fn rules_have_the_sizes_the_issue_names() {
        let population: Vec<u64> = (0..FLOW_POPULATION as u64).map(splitmix64_mix).collect();
        let r = rules(1, &population);
        assert_eq!(
            (r.exact.len(), r.lpm.len(), r.ternary.len(), r.range.len()),
            (N_EXACT, N_LPM, N_TERNARY, N_RANGE)
        );
    }

    #[test]
    fn churn_keys_never_collide_with_chain_keys() {
        for seed in 0..50 {
            let p = churn_plan(seed);
            let mut keys = p.keys.to_vec();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), CHAIN_STAGES);
            assert!(p
                .churn
                .iter()
                .all(|&(t, k)| (1..8).contains(&t) && k >= 1_000));
        }
    }
}
