//! The production [`CbwsPredictor`] against a spec-literal reference model.
//!
//! The reference is transcribed from Algorithm 1 and Figs. 9-11 as plainly
//! as possible: the predecessor CBWSs are a `VecDeque` of cloned vectors,
//! each step's differential is collected with `Differential::from_strides`
//! at `BLOCK_END` and cloned into the table, and predictions are built
//! with `Differential::apply`. The production predictor builds the same
//! state in place in fixed, preallocated buffers; driving both over random
//! block streams must give identical predictions and identical counters.

use cbws_core::{CbwsConfig, CbwsPredictor, CbwsStats, CbwsVec, Differential};
use cbws_trace::{BlockId, LineAddr};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A history shift register: a FIFO of 12-bit differential hashes (§V-A).
struct RefHistory {
    entries: VecDeque<u16>,
    depth: usize,
}

impl RefHistory {
    fn shift(&mut self, hash12: u16) {
        if self.entries.len() == self.depth {
            self.entries.pop_front();
        }
        self.entries.push_back(hash12 & 0xFFF);
    }

    fn is_warm(&self) -> bool {
        self.entries.len() == self.depth
    }

    /// The register contents folded into a 16-bit tag, salted by step.
    fn tag(&self, step: usize) -> u16 {
        let mut t: u16 = (step as u16).wrapping_mul(0x9E37);
        for (i, &e) in self.entries.iter().enumerate() {
            t ^= e.rotate_left((i as u32 * 5) % 16);
        }
        t
    }
}

/// The fully-associative differential history table: a matching tag is
/// updated, else the first free entry filled, else a xorshift victim.
struct RefTable {
    entries: Vec<Option<(u16, Differential)>>,
    rng: u32,
}

impl RefTable {
    fn lookup(&self, tag: u16) -> Option<&Differential> {
        self.entries
            .iter()
            .flatten()
            .find(|(t, _)| *t == tag)
            .map(|(_, d)| d)
    }

    fn insert(&mut self, tag: u16, diff: Differential) {
        if let Some(slot) = self.entries.iter_mut().flatten().find(|(t, _)| *t == tag) {
            slot.1 = diff;
            return;
        }
        if let Some(free) = self.entries.iter_mut().find(|e| e.is_none()) {
            *free = Some((tag, diff));
            return;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        let victim = x as usize % self.entries.len();
        self.entries[victim] = Some((tag, diff));
    }
}

/// Algorithm 1, one structure per box of Fig. 8.
struct RefPredictor {
    cfg: CbwsConfig,
    current_block: Option<BlockId>,
    curr: CbwsVec,
    curr_diffs: Vec<Vec<i64>>,
    last: VecDeque<CbwsVec>,
    histories: Vec<RefHistory>,
    table: RefTable,
    confident: bool,
    last_block_overflowed: bool,
    last_prediction_span: u64,
    stats: CbwsStats,
}

impl RefPredictor {
    fn new(cfg: CbwsConfig) -> Self {
        RefPredictor {
            cfg,
            current_block: None,
            curr: CbwsVec::new(cfg.max_vector),
            curr_diffs: vec![Vec::new(); cfg.max_step],
            last: VecDeque::new(),
            histories: (0..cfg.max_step)
                .map(|_| RefHistory {
                    entries: VecDeque::new(),
                    depth: cfg.history_depth,
                })
                .collect(),
            table: RefTable {
                entries: vec![None; cfg.table_entries],
                rng: 0x2545_F491,
            },
            confident: false,
            last_block_overflowed: false,
            last_prediction_span: 0,
            stats: CbwsStats::default(),
        }
    }

    /// Fig. 9: a new block id flushes all cross-iteration state.
    fn block_begin(&mut self, id: BlockId) {
        if self.current_block != Some(id) {
            if self.current_block.is_some() {
                self.stats.block_switches += 1;
            }
            self.current_block = Some(id);
            self.last.clear();
            for h in &mut self.histories {
                h.entries.clear();
            }
            self.confident = false;
        }
        self.curr.clear();
        for d in &mut self.curr_diffs {
            d.clear();
        }
    }

    /// Fig. 10: append the line, extend each step's differential while it
    /// is still aligned with its predecessor.
    fn observe(&mut self, line: LineAddr) {
        if self.current_block.is_none() {
            return;
        }
        let before = self.curr.overflowed();
        if !self.curr.observe(line) {
            self.stats.vector_overflows += self.curr.overflowed() - before;
            return;
        }
        let idx = self.curr.len() - 1;
        for (step, diffs) in self.curr_diffs.iter_mut().enumerate() {
            if let Some(prev_line) = self.last.get(step).and_then(|p| p.get(idx)) {
                if diffs.len() == idx {
                    diffs.push(line.delta(prev_line));
                }
            }
        }
    }

    /// Fig. 11: train, rotate, look up, predict.
    fn block_end(&mut self, id: BlockId) -> Vec<LineAddr> {
        if self.current_block != Some(id) {
            return Vec::new();
        }
        self.stats.blocks += 1;
        self.last_block_overflowed = self.curr.overflowed() > 0;
        for step in 0..self.cfg.max_step {
            let diff = Differential::from_strides(self.curr_diffs[step].iter().copied());
            if diff.is_empty() {
                continue;
            }
            if self.histories[step].is_warm() {
                let tag = self.histories[step].tag(step);
                self.table.insert(tag, diff.clone());
            }
            self.histories[step].shift(diff.hash12());
        }
        if self.last.len() == self.cfg.max_step {
            self.last.pop_back();
        }
        self.last.push_front(self.curr.clone());

        let mut out = Vec::new();
        let mut hit = false;
        let mut span = 0u64;
        let base = &self.last[0];
        for step in 0..self.cfg.prediction_depth {
            if !self.histories[step].is_warm() {
                continue;
            }
            if let Some(pred) = self.table.lookup(self.histories[step].tag(step)) {
                hit = true;
                let widest = pred.strides().iter().map(|s| s.unsigned_abs() as u64);
                span = span.max(widest.max().unwrap_or(0));
                if !pred.is_zero() {
                    out.extend(pred.apply(base));
                }
            }
        }
        self.confident = hit;
        self.last_prediction_span = span;
        if hit {
            self.stats.prediction_hits += 1;
        } else {
            self.stats.prediction_misses += 1;
        }
        self.curr.clear();
        for d in &mut self.curr_diffs {
            d.clear();
        }
        out
    }
}

/// One dynamic block instance: its id and the lines it touches.
#[derive(Debug, Clone)]
struct Block {
    id: u32,
    lines: Vec<u64>,
}

/// Block streams mixing strided loops (whose differentials repeat, so the
/// table trains and hits), random lines (strides far beyond `i16`),
/// working sets longer than small vectors, and block-id switches.
fn block_stream() -> impl Strategy<Value = Vec<Block>> {
    let shape = (0u32..3, 1usize..24, any::<bool>());
    let stride = prop_oneof![Just(0i64), -40i64..40, 30_000i64..70_000, Just(1 << 33)];
    let phase = (shape, stride, 0u64..1 << 40);
    proptest::collection::vec(phase, 1..12).prop_map(|phases| {
        let mut blocks = Vec::new();
        for ((id, width, random), stride, base) in phases {
            let mut x = base | 1;
            for iter in 0..(4 + (base % 9) as i64) {
                let lines = (0..width as u64)
                    .map(|k| {
                        if random {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x >> 20
                        } else {
                            (base + k * 3).wrapping_add_signed(iter * stride) % (1 << 48)
                        }
                    })
                    .collect();
                blocks.push(Block { id, lines });
            }
        }
        blocks
    })
}

/// Every `max_vector` × `table_entries` × `max_step` × `prediction_depth`
/// point the property covers.
fn configs(history_depth: usize) -> impl Iterator<Item = CbwsConfig> {
    let shapes = [4usize, 16, 64].into_iter().flat_map(|v| {
        [1usize, 16]
            .into_iter()
            .flat_map(move |t| (1..=4usize).map(move |s| (v, t, s)))
    });
    shapes.flat_map(move |(max_vector, table_entries, max_step)| {
        (1..=max_step).map(move |prediction_depth| CbwsConfig {
            max_vector,
            max_step,
            prediction_depth,
            history_depth,
            table_entries,
            observe_l1_hits: true,
        })
    })
}

/// Runs both predictors over `blocks`, comparing after every `BLOCK_END`.
fn check(cfg: CbwsConfig, blocks: &[Block]) -> Result<(), TestCaseError> {
    let mut fast = CbwsPredictor::new(cfg);
    let mut spec = RefPredictor::new(cfg);
    let mut out = Vec::new();
    for (n, b) in blocks.iter().enumerate() {
        let id = BlockId(b.id);
        fast.block_begin(id);
        spec.block_begin(id);
        for &l in &b.lines {
            fast.observe(LineAddr(l));
            spec.observe(LineAddr(l));
        }
        // Every so often end a block that is not the open one.
        let end = if n % 7 == 6 { BlockId(b.id + 1) } else { id };
        out.clear();
        fast.block_end(end, &mut out);
        let expect = spec.block_end(end);
        prop_assert_eq!(&out, &expect, "{:?}, block {}", cfg, n);
        prop_assert_eq!(fast.stats(), &spec.stats, "{:?}, block {}", cfg, n);
        prop_assert_eq!(fast.is_confident(), spec.confident);
        prop_assert_eq!(fast.last_block_overflowed(), spec.last_block_overflowed);
        prop_assert_eq!(fast.last_prediction_span(), spec.last_prediction_span);
    }
    Ok(())
}

proptest! {
    #[test]
    fn predictor_matches_reference(history_depth in 1usize..4, blocks in block_stream()) {
        for cfg in configs(history_depth) {
            check(cfg, &blocks)?;
        }
    }
}
