//! Global History Buffer prefetching with delta correlation
//! (Nesbit & Smith, HPCA 2004), in its G/DC and PC/DC variants.
//!
//! The GHB stores recent *miss* addresses per localization key — the single
//! global stream for G/DC, the PC for PC/DC. On a training miss the
//! prefetcher extracts the key's recent delta stream, searches it for the
//! most recent earlier occurrence of the last `history_len` deltas, and
//! prefetches `degree` lines by replaying the deltas that followed that
//! occurrence.
//!
//! Structural note: each key's stream keeps the deltas between its last
//! misses (256 for G/DC, 32 per PC for PC/DC) in a ring, the window
//! `[first, next)` sliding by one delta per miss, so nothing is rebuilt.
//! Correlation search follows Nesbit & Smith's index table and link
//! pointers instead of scanning: every position where a complete
//! `history_len`-delta key starts is entered in a small hashed index
//! table, whose bucket holds the latest key start that hashed to it, and
//! each start links to the previous start in its bucket. A lookup walks
//! the chain from the key's bucket, newest first, checks each candidate
//! delta by delta (hash collisions share buckets), and stops at the window
//! edge, so its first hit is the most recent earlier occurrence of the key
//! — exactly what a backward scan of the window finds. All streams' rings,
//! links and buckets live in flat arrays allocated once in
//! [`GhbPrefetcher::new`]; the LRU-bounded key index hands an evicted
//! stream's slot to the new key. Storage is accounted with Table III's
//! formulas.

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::{LineAddr, Pc};

/// Localization mode of the GHB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhbKind {
    /// One global miss stream (GHB G/DC).
    GlobalDeltaCorrelation,
    /// Per-PC miss streams (GHB PC/DC).
    PcDeltaCorrelation,
}

/// GHB parameters (Table II: 256 entries, history length 3, degree 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhbConfig {
    /// Localization mode.
    pub kind: GhbKind,
    /// Total buffer entries (bounds keys tracked and per-key history).
    pub entries: usize,
    /// Number of most-recent deltas forming the correlation key.
    pub history_len: usize,
    /// Lines prefetched per correlation hit.
    pub degree: usize,
    /// Train on all L2 demand accesses (`false` = misses only, the paper's
    /// conservative configuration discussed in §II).
    pub train_on_hits: bool,
}

impl GhbConfig {
    /// The paper's GHB G/DC configuration.
    pub fn gdc() -> Self {
        GhbConfig {
            kind: GhbKind::GlobalDeltaCorrelation,
            entries: 256,
            history_len: 3,
            degree: 3,
            train_on_hits: false,
        }
    }

    /// The paper's GHB PC/DC configuration.
    pub fn pcdc() -> Self {
        GhbConfig {
            kind: GhbKind::PcDeltaCorrelation,
            ..Self::gdc()
        }
    }
}

/// Marks an empty index bucket or the end of a link chain.
const NO_START: u64 = u64::MAX;

/// One key's miss stream. Deltas are numbered from the slot's creation;
/// the window holds deltas `first..next`, delta `j` at ring slot
/// `j & (ring - 1)`.
#[derive(Debug, Clone, Copy)]
struct Stream {
    key: u64,
    lru: u64,
    /// The most recent miss, or `None` for an empty stream.
    last_line: Option<LineAddr>,
    first: u64,
    next: u64,
}

/// The GHB G/DC / PC/DC prefetcher.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    cfg: GhbConfig,
    streams: Vec<Stream>,
    /// Misses kept per key; the delta window holds one fewer.
    per_key_cap: usize,
    key_cap: usize,
    /// Slots per stream in `deltas`, `links` and `index`: `per_key_cap`
    /// rounded up to a power of two.
    ring: usize,
    /// `key_cap` delta rings, one per stream slot.
    deltas: Vec<i64>,
    /// Parallel to `deltas`: the previous key start in the same bucket.
    links: Vec<u64>,
    /// `key_cap` index tables: the latest key start per bucket.
    index: Vec<u64>,
    stamp: u64,
}

impl GhbPrefetcher {
    /// Creates a GHB prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries`, `history_len`, or `degree` is zero.
    pub fn new(cfg: GhbConfig) -> Self {
        assert!(cfg.entries > 0, "GHB needs at least one entry");
        assert!(cfg.history_len > 0, "history length must be non-zero");
        assert!(cfg.degree > 0, "degree must be non-zero");
        let (per_key_cap, key_cap) = match cfg.kind {
            GhbKind::GlobalDeltaCorrelation => (cfg.entries, 1),
            // Hardware shares the 256 entries across chains; cap chains at a
            // plausible share and the key index at the entry count.
            GhbKind::PcDeltaCorrelation => (32.min(cfg.entries), cfg.entries),
        };
        let ring = per_key_cap.next_power_of_two();
        GhbPrefetcher {
            cfg,
            streams: Vec::with_capacity(key_cap),
            per_key_cap,
            key_cap,
            ring,
            deltas: vec![0; key_cap * ring],
            links: vec![NO_START; key_cap * ring],
            index: vec![NO_START; key_cap * ring],
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GhbConfig {
        &self.cfg
    }

    fn key_of(&self, pc: Pc) -> u64 {
        match self.cfg.kind {
            GhbKind::GlobalDeltaCorrelation => 0,
            GhbKind::PcDeltaCorrelation => pc.0,
        }
    }

    /// The stream slot for `key`, claiming a free slot or resetting the
    /// least recently used one when the key is new.
    fn stream_slot(&mut self, key: u64, stamp: u64) -> usize {
        if let Some(i) = self.streams.iter().position(|s| s.key == key) {
            return i;
        }
        let fresh = Stream {
            key,
            lru: stamp,
            last_line: None,
            first: 0,
            next: 0,
        };
        if self.streams.len() < self.key_cap {
            self.streams.push(fresh);
            return self.streams.len() - 1;
        }
        let victim = (0..self.streams.len())
            .min_by_key(|&i| self.streams[i].lru)
            .expect("key_cap > 0");
        // Delta numbers carry on, so every start the old key left in the
        // slot's index table and links lies before the new window.
        let next = self.streams[victim].next;
        self.streams[victim] = Stream {
            first: next,
            next,
            ..fresh
        };
        victim
    }

    /// Appends `line` to stream `slot`, sliding its delta window, and
    /// pushes the delta-correlation prediction onto `out`: the deltas that
    /// followed the most recent earlier occurrence of the last
    /// `history_len` deltas, replayed from `line`.
    fn train(&mut self, slot: usize, line: LineAddr, out: &mut Vec<LineAddr>) {
        let h = self.cfg.history_len as u64;
        let slots = slot * self.ring..(slot + 1) * self.ring;
        let mask = self.ring as u64 - 1;
        let s = &mut self.streams[slot];
        let Some(prev) = s.last_line.replace(line) else {
            return;
        };
        let deltas = &mut self.deltas[slots.clone()];
        deltas[(s.next & mask) as usize] = line.delta(prev);
        s.next += 1;
        if s.next - s.first >= self.per_key_cap as u64 {
            s.first += 1;
        }
        let (first, next) = (s.first, s.next);
        if next - first < h {
            return;
        }
        let at = |j: u64| deltas[(j & mask) as usize];
        // The key starts at `next - h`; walk earlier starts in its bucket.
        // A later start reusing a link slot lies at least `ring` deltas
        // after the one it replaces, so every link inside the window is
        // still its own.
        let key_start = next - h;
        let hash = (0..h).fold(0u64, |acc, i| {
            (acc ^ at(key_start + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let index = &mut self.index[slots.clone()];
        let bucket = ((hash >> 32) & mask) as usize;
        let links = &mut self.links[slots];
        let mut cand = index[bucket];
        while cand != NO_START && cand >= first {
            if (0..h).all(|i| at(cand + i) == at(key_start + i)) {
                // Replay the deltas that followed the occurrence; if fewer
                // than `degree` exist, cycle through them (periodic-stream
                // assumption).
                let follow = cand + h..next;
                let mut j = follow.start;
                let mut cursor = line;
                for _ in 0..self.cfg.degree {
                    cursor = cursor.offset(at(j));
                    out.push(cursor);
                    j = if j + 1 == follow.end {
                        follow.start
                    } else {
                        j + 1
                    };
                }
                break;
            }
            cand = links[(cand & mask) as usize];
        }
        links[(key_start & mask) as usize] = index[bucket];
        index[bucket] = key_start;
    }
}

impl Describe for GhbPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let c = &self.cfg;
        let (summary, kind_default) = match c.kind {
            GhbKind::GlobalDeltaCorrelation => (
                "Global History Buffer with global delta correlation \
                 (Nesbit & Smith, HPCA 2004): one global miss stream whose \
                 recent delta sequence is matched against its own history, \
                 replaying the deltas that followed the last occurrence.",
                "G/DC",
            ),
            GhbKind::PcDeltaCorrelation => (
                "Global History Buffer with per-PC delta correlation \
                 (Nesbit & Smith, HPCA 2004): per-PC miss streams whose \
                 recent delta sequence is matched against their own history, \
                 replaying the deltas that followed the last occurrence.",
                "PC/DC",
            ),
        };
        ComponentDescription::new(Prefetcher::name(self), ComponentKind::Prefetcher, summary)
            .paper_section("§VII, Tables II-III (baseline)")
            .storage_bits(self.storage_bits())
            .param(ParamSpec::new(
                "kind",
                "localization mode: one global stream (G/DC) or per-PC streams (PC/DC)",
                kind_default,
                "G/DC | PC/DC",
            ))
            .param(ParamSpec::new(
                "entries",
                "total buffer entries, bounding keys tracked and per-key history (paper: 256)",
                c.entries.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "history_len",
                "most-recent deltas forming the correlation key (paper: 3)",
                c.history_len.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "degree",
                "lines prefetched per correlation hit (paper: 3)",
                c.degree.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "train_on_hits",
                "train on all L2 demand accesses (`false` = misses only, \
                 the paper's conservative configuration)",
                c.train_on_hits.to_string(),
                "bool",
            ))
            .metrics(cbws_describe::instrumented_prefetcher_metrics())
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        match self.cfg.kind {
            GhbKind::GlobalDeltaCorrelation => "GHB-G/DC",
            GhbKind::PcDeltaCorrelation => "GHB-PC/DC",
        }
    }

    fn storage_bits(&self) -> u64 {
        let e = self.cfg.entries as u64;
        match self.cfg.kind {
            // Table III: (3 history strides + 3 prefetch strides) x 12b x 256.
            GhbKind::GlobalDeltaCorrelation => 6 * 12 * e,
            // Table III: G/DC + a 48-bit PC per entry.
            GhbKind::PcDeltaCorrelation => (6 * 12 + 48) * e,
        }
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        let trains = if self.cfg.train_on_hits {
            ctx.reached_l2()
        } else {
            ctx.llc_miss()
        };
        if !trains {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let slot = self.stream_slot(self.key_of(ctx.pc), stamp);
        self.streams[slot].lru = stamp;
        self.train(slot, ctx.addr.line(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::Addr;

    fn miss(pc: u64, line: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(pc), Addr(line * 64))
    }

    fn run(pf: &mut GhbPrefetcher, accesses: &[(u64, u64)]) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for &(pc, line) in accesses {
            out.clear();
            pf.on_access(&miss(pc, line), &mut out);
        }
        out
    }

    #[test]
    fn pcdc_learns_constant_stride() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        // Stride of 16 lines at one PC: after enough history, predict +16s.
        let accs: Vec<(u64, u64)> = (0..8).map(|i| (0x40, 100 + i * 16)).collect();
        let out = run(&mut pf, &accs);
        assert_eq!(out, vec![LineAddr(228), LineAddr(244), LineAddr(260)]);
    }

    #[test]
    fn gdc_learns_interleaved_global_pattern() {
        let mut pf = GhbPrefetcher::new(GhbConfig::gdc());
        // Global periodic delta pattern from two interleaved streams:
        // lines 0, 1000, 4, 1004, 8, 1008, ... => deltas +1000, -996, ...
        let mut accs = Vec::new();
        for i in 0..8u64 {
            accs.push((1, i * 4));
            accs.push((2, 1000 + i * 4));
        }
        let out = run(&mut pf, &accs);
        assert!(!out.is_empty(), "periodic global deltas should correlate");
        // Next predicted deltas continue the period: -996 then +1000...
        assert_eq!(out[0], LineAddr(32));
    }

    #[test]
    fn pcdc_separates_streams_gdc_conflates() {
        // Two PCs with irregular interleaving: PC/DC still sees clean
        // per-PC strides.
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let mut accs = Vec::new();
        for i in 0..10u64 {
            accs.push((0x40, i * 7));
            if i % 2 == 0 {
                accs.push((0x80, 100000 + i * 3));
            }
        }
        let out = run(&mut pf, &accs);
        assert!(!out.is_empty());
        assert_eq!(out[0], LineAddr(9 * 7 + 7));
    }

    #[test]
    fn short_history_is_silent() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let out = run(&mut pf, &[(1, 0), (1, 16), (1, 32)]);
        assert!(out.is_empty(), "needs history_len+1 deltas to correlate");
    }

    #[test]
    fn does_not_train_on_hits_by_default() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let mut out = Vec::new();
        for i in 0..8u64 {
            let mut c = miss(0x40, i * 16);
            c.l2_hit = true;
            pf.on_access(&c, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn trains_on_hits_when_configured() {
        let cfg = GhbConfig {
            train_on_hits: true,
            ..GhbConfig::pcdc()
        };
        let mut pf = GhbPrefetcher::new(cfg);
        let mut out = Vec::new();
        for i in 0..8u64 {
            let mut c = miss(0x40, i * 16);
            c.l2_hit = true;
            out.clear();
            pf.on_access(&c, &mut out);
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn irregular_stream_is_silent() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        // No repeating delta triple.
        let accs: Vec<(u64, u64)> = [
            (0u64, 0u64),
            (0, 3),
            (0, 9),
            (0, 11),
            (0, 20),
            (0, 22),
            (0, 31),
            (0, 45),
        ]
        .to_vec();
        let out = run(&mut pf, &accs);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_matches_table3() {
        assert_eq!(GhbPrefetcher::new(GhbConfig::gdc()).storage_bits(), 18432); // 2.25KB
        assert_eq!(GhbPrefetcher::new(GhbConfig::pcdc()).storage_bits(), 30720);
        // 3.75KB
    }

    #[test]
    fn key_table_eviction_bounds_state() {
        let cfg = GhbConfig {
            entries: 4,
            ..GhbConfig::pcdc()
        };
        let mut pf = GhbPrefetcher::new(cfg);
        let mut out = Vec::new();
        for pc in 0..100u64 {
            pf.on_access(&miss(pc, pc * 10), &mut out);
        }
        assert!(pf.streams.len() <= 4);
    }

    #[test]
    fn names() {
        assert_eq!(GhbPrefetcher::new(GhbConfig::gdc()).name(), "GHB-G/DC");
        assert_eq!(GhbPrefetcher::new(GhbConfig::pcdc()).name(), "GHB-PC/DC");
    }
}
