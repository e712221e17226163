//! The production [`GhbPrefetcher`] against a naive reference model.
//!
//! The reference keeps each key's recent misses in a `VecDeque`, rebuilds
//! the delta stream on every training miss, and scans it backwards for the
//! most recent earlier occurrence of the last `history_len` deltas — the
//! plainest reading of Nesbit & Smith's delta correlation. The production
//! prefetcher keeps a sliding delta ring and follows an index table and
//! link chain instead; both must emit the same candidates on every access.

use cbws_prefetchers::{GhbConfig, GhbKind, GhbPrefetcher, PrefetchContext, Prefetcher};
use cbws_trace::{Addr, LineAddr, Pc};
use proptest::prelude::*;
use std::collections::VecDeque;

struct RefStream {
    key: u64,
    lines: VecDeque<LineAddr>,
    lru: u64,
}

/// GHB delta correlation by rebuild-and-scan.
struct RefGhb {
    cfg: GhbConfig,
    streams: Vec<RefStream>,
    per_key_cap: usize,
    key_cap: usize,
    stamp: u64,
}

impl RefGhb {
    fn new(cfg: GhbConfig) -> Self {
        let (per_key_cap, key_cap) = match cfg.kind {
            GhbKind::GlobalDeltaCorrelation => (cfg.entries, 1),
            GhbKind::PcDeltaCorrelation => (32.min(cfg.entries), cfg.entries),
        };
        RefGhb {
            cfg,
            streams: Vec::new(),
            per_key_cap,
            key_cap,
            stamp: 0,
        }
    }

    fn predict(lines: &VecDeque<LineAddr>, history_len: usize, degree: usize) -> Vec<i64> {
        let deltas: Vec<i64> = (1..lines.len())
            .map(|i| lines[i].delta(lines[i - 1]))
            .collect();
        let m = deltas.len();
        if m < history_len + 1 {
            return Vec::new();
        }
        let key = &deltas[m - history_len..];
        for start in (0..m - history_len).rev() {
            if &deltas[start..start + history_len] == key {
                let follow = &deltas[start + history_len..];
                return (0..degree).map(|k| follow[k % follow.len()]).collect();
            }
        }
        Vec::new()
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Vec<LineAddr> {
        let trains = if self.cfg.train_on_hits {
            ctx.reached_l2()
        } else {
            ctx.llc_miss()
        };
        if !trains {
            return Vec::new();
        }
        self.stamp += 1;
        let key = match self.cfg.kind {
            GhbKind::GlobalDeltaCorrelation => 0,
            GhbKind::PcDeltaCorrelation => ctx.pc.0,
        };
        let i = match self.streams.iter().position(|s| s.key == key) {
            Some(i) => i,
            None if self.streams.len() < self.key_cap => {
                self.streams.push(RefStream {
                    key,
                    lines: VecDeque::new(),
                    lru: 0,
                });
                self.streams.len() - 1
            }
            None => {
                let victim = (0..self.streams.len())
                    .min_by_key(|&i| self.streams[i].lru)
                    .unwrap();
                self.streams[victim].key = key;
                self.streams[victim].lines.clear();
                victim
            }
        };
        let s = &mut self.streams[i];
        s.lru = self.stamp;
        if s.lines.len() == self.per_key_cap {
            s.lines.pop_front();
        }
        let line = ctx.addr.line();
        s.lines.push_back(line);
        let mut cursor = line;
        Self::predict(&s.lines, self.cfg.history_len, self.cfg.degree)
            .into_iter()
            .map(|d| {
                cursor = cursor.offset(d);
                cursor
            })
            .collect()
    }
}

/// One access: PC, line, and which levels it hit.
type Access = (u64, u64, bool, bool);

/// Periodic delta streams over round-robin PCs (which correlate globally
/// and per PC) and random ones over random PCs (which mostly do not), on
/// a few PCs or many (more than `key_cap` for small buffers, so PC/DC
/// streams get evicted).
fn accesses() -> impl Strategy<Value = Vec<Access>> {
    let period = proptest::collection::vec(-6i64..7, 1..6);
    let pcs = prop_oneof![Just(1u64), 2u64..5, 5u64..80];
    let phase = (period, (pcs, 0u64..4), 0u64..1 << 30, any::<bool>());
    proptest::collection::vec(phase, 1..8).prop_map(|phases| {
        let mut out = Vec::new();
        let mut line = 1u64 << 32;
        let mut x = 0x9E37_79B9u64;
        for (period, (pcs, hit_every), seed, random) in phases {
            x ^= seed;
            for k in 0..60usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = if random {
                    (x % 41) as i64 - 20
                } else {
                    period[k % period.len()]
                };
                line = line.wrapping_add_signed(delta);
                let pc = 0x400
                    + if random {
                        (x >> 8) % pcs
                    } else {
                        k as u64 % pcs
                    };
                let l2_hit = hit_every > 0 && (x >> 20).is_multiple_of(hit_every + 1);
                let l1_hit = (x >> 24).is_multiple_of(11);
                out.push((pc, line, l1_hit, l2_hit));
            }
        }
        out
    })
}

fn check(cfg: GhbConfig, trace: &[Access]) -> Result<(), TestCaseError> {
    let mut fast = GhbPrefetcher::new(cfg);
    let mut spec = RefGhb::new(cfg);
    let mut out = Vec::new();
    for (n, &(pc, line, l1_hit, l2_hit)) in trace.iter().enumerate() {
        let ctx = PrefetchContext {
            pc: Pc(pc),
            addr: Addr(line * 64),
            is_store: false,
            l1_hit,
            l2_hit,
            in_block: false,
        };
        out.clear();
        fast.on_access(&ctx, &mut out);
        prop_assert_eq!(&out, &spec.on_access(&ctx), "{:?}, access {}", cfg, n);
    }
    Ok(())
}

proptest! {
    #[test]
    fn ghb_matches_reference(
        entries in 2usize..65,
        shape in (1usize..5, 1usize..5, any::<bool>()),
        trace in accesses(),
    ) {
        let (history_len, degree, train_on_hits) = shape;
        for kind in [GhbKind::GlobalDeltaCorrelation, GhbKind::PcDeltaCorrelation] {
            let cfg = GhbConfig { kind, entries, history_len, degree, train_on_hits };
            check(cfg, &trace)?;
        }
    }

    #[test]
    fn paper_sized_ghb_matches_reference(trace in accesses()) {
        for cfg in [GhbConfig::gdc(), GhbConfig::pcdc()] {
            check(cfg, &trace)?;
        }
    }
}
