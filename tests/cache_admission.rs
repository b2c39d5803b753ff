//! Why the decision cache admits a flow only on its second miss once it
//! is full: on the `zipf_flows` benchmark stream, the entries a plain
//! LRU evicts are overwhelmingly flows it never hit again. The count is
//! taken here, over a test-side LRU, rather than by the machine.

use rkd::core::recency::RecencyList;
use rkd::testkit::rng::{splitmix64_mix, SeedableRng, StdRng};
use rkd::workloads::zipf::ZipfFlows;
use std::collections::HashMap;

/// The benchmark's flow stream: Zipf(1.1) over 65,536 flows, 2^21
/// events, from the generator it seeds for seed 2021 and purpose
/// `"zipf"`.
fn zipf_flows_stream() -> Vec<u64> {
    let tag = b"zipf".iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(splitmix64_mix(2021 ^ tag));
    ZipfFlows::new(65_536, 1.1).stream(1 << 21, &mut rng)
}

#[test]
fn one_shot_flows_are_what_plain_lru_evicts() {
    const SLOTS: usize = 1024;
    let mut index: HashMap<u64, u32> = HashMap::new();
    // (flow, hit since it was inserted) per slot.
    let mut slots: Vec<(u64, bool)> = Vec::new();
    let mut recency = RecencyList::new();
    let (mut hits, mut evictions, mut never_hit) = (0u64, 0u64, 0u64);
    let stream = zipf_flows_stream();
    for &flow in &stream {
        if let Some(&s) = index.get(&flow) {
            hits += 1;
            slots[s as usize].1 = true;
            recency.touch(s);
            continue;
        }
        let s = match recency.back().filter(|_| slots.len() == SLOTS) {
            Some(victim) => {
                let (old, was_hit) = slots[victim as usize];
                index.remove(&old);
                evictions += 1;
                never_hit += u64::from(!was_hit);
                slots[victim as usize] = (flow, false);
                recency.touch(victim);
                victim
            }
            None => {
                slots.push((flow, false));
                let s = (slots.len() - 1) as u32;
                recency.push_front(s);
                s
            }
        };
        index.insert(flow, s);
    }
    let share = never_hit as f64 / evictions as f64;
    let hit_pct = 100.0 * hits as f64 / stream.len() as f64;
    eprintln!(
        "plain LRU, {SLOTS} slots: {hit_pct:.1} % hits, {evictions} evictions, \
         {:.1} % of them never hit",
        100.0 * share
    );
    // The admission rule is worth its filter only if one-shot flows are
    // the evictors.
    assert!(share > 0.5, "never-hit share {share:.3}");
    assert!((66.0..71.0).contains(&hit_pct), "LRU hit rate {hit_pct:.2}");
}
