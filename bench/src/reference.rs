//! Independent reference of the `zipf_flows` pipeline: plain linear
//! scans over the rule lists of `inputs.rs`, written from the match
//! semantics the machine documents (exact: the key; LPM: longest
//! prefix, then priority, then first inserted; ternary and range:
//! highest priority, then first inserted). It shares no code with
//! `rkd_core::table`.

use crate::inputs::Rules;

/// Verdict of a table whose lookup missed (the default action):
/// `(flow & 0xFF) + 1000`.
pub fn default_verdict(flow: i64) -> i64 {
    (flow & 0xFF) + 1_000
}

/// Verdict of a matched entry (the hit action): `arg ^ flow`.
fn hit_verdict(arg: i64, flow: i64) -> i64 {
    arg ^ flow
}

/// Picks the winner among matching `(rank, arg)` candidates: greatest
/// rank, earliest on ties.
fn winner<R: PartialOrd>(candidates: impl Iterator<Item = (R, i64)>) -> Option<i64> {
    let mut best: Option<(R, i64)> = None;
    for (rank, arg) in candidates {
        if best.as_ref().is_none_or(|(b, _)| rank > *b) {
            best = Some((rank, arg));
        }
    }
    best.map(|(_, arg)| arg)
}

/// The four verdicts one event must produce, in table order.
pub fn verdicts(rules: &Rules, fields: [i64; 3]) -> [i64; 4] {
    let [flow, addr, port] = fields;
    let (uflow, uaddr, uport) = (flow as u64, addr as u64, port as u64);
    let exact = rules
        .exact
        .iter()
        .find(|&&(f, _)| f == uflow)
        .map(|&(_, arg)| arg);
    let lpm = winner(
        rules
            .lpm
            .iter()
            .filter(|l| uaddr >> (64 - l.len) == l.value >> (64 - l.len))
            .map(|l| ((l.len, l.priority), l.arg)),
    );
    let ternary = winner(
        rules
            .ternary
            .iter()
            .filter(|t| {
                let [(av, am), (pv, pm)] = t.parts;
                uaddr & am == av & am && uport & pm == pv & pm
            })
            .map(|t| (t.priority, t.arg)),
    );
    let range = winner(
        rules
            .range
            .iter()
            .filter(|g| g.lo <= uport && uport <= g.hi)
            .map(|g| (g.priority, g.arg)),
    );
    [exact, lpm, ternary, range].map(|hit| match hit {
        Some(arg) => hit_verdict(arg, flow),
        None => default_verdict(flow),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{LpmRule, RangeRule, TernaryRule};

    fn rules() -> Rules {
        Rules {
            exact: vec![(5, 100)],
            lpm: vec![
                LpmRule {
                    value: 0xAB00 << 48,
                    len: 8,
                    priority: 9,
                    arg: 1,
                },
                LpmRule {
                    value: 0xABCD << 48,
                    len: 16,
                    priority: 0,
                    arg: 2,
                },
            ],
            ternary: vec![
                TernaryRule {
                    parts: [(0, 0), (0x1, 0xF)],
                    priority: 3,
                    arg: 7,
                },
                TernaryRule {
                    parts: [(0, 0), (0x1, 0x1)],
                    priority: 3,
                    arg: 8,
                },
            ],
            range: vec![
                RangeRule {
                    lo: 0,
                    hi: 100,
                    priority: 1,
                    arg: 50,
                },
                RangeRule {
                    lo: 10,
                    hi: 20,
                    priority: 2,
                    arg: 51,
                },
            ],
        }
    }

    #[test]
    fn longest_prefix_beats_priority_and_first_wins_ties() {
        let r = rules();
        let addr = (0xABCD_u64 << 48 | 77) as i64;
        let v = verdicts(&r, [5, addr, 0x11]);
        assert_eq!(v[0], 100 ^ 5);
        assert_eq!(v[1], 2 ^ 5, "the /16 wins over the higher-priority /8");
        assert_eq!(v[2], 7 ^ 5, "equal priority: first inserted wins");
        assert_eq!(v[3], 51 ^ 5, "higher priority span wins inside the overlap");
    }

    #[test]
    fn misses_take_the_default_verdict() {
        let r = rules();
        let v = verdicts(&r, [0x1234, 0, 0x200]);
        assert_eq!(v, [default_verdict(0x1234); 4]);
    }
}
