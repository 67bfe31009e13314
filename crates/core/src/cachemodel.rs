//! Static cache-hierarchy analysis: reuse-distance abstract
//! interpretation of a schedule's access paths, cache-corrected MUE, and
//! cache lints.
//!
//! The paper's MUE (Sec. III) prices every transferred word equally, but
//! the machine does not: a word re-read while still resident on chip
//! costs nothing at the DRAM interface — which is exactly the effect
//! GEMM-epilogue fusion exploits. This module closes that gap statically:
//!
//! * [`CacheGeometry`] parameterizes an inclusive L1/L2/LLC hierarchy —
//!   derived from the modelled accelerator ([`CacheGeometry::for_device`])
//!   or parsed from a spec ([`CacheGeometry::parse`]), which is what the
//!   `XFORM_CACHE_GEOM` override holds;
//! * [`trace_plan`] abstract-interprets each step's index-affine access
//!   paths (from [`crate::access::step_accesses`], with the conservative
//!   flat fallback preserved as an upper bound) into a buffer-granular
//!   LRU stack-distance profile: per-step working sets, a plan-level
//!   stack-distance histogram, per-level hit words, and predicted
//!   DRAM-interface words;
//! * [`cache_audit`] folds [`crate::analyze::audit`]'s step accounts
//!   ([`crate::analyze::StepAccount::fold`], the audit's own fold) with
//!   the predicted hits discounted from each step's modelled traffic,
//!   yielding a **cache-corrected static MUE**. `Q` is untouched and `D` only
//!   shrinks (never below `Q`), so the corrected MUE is ≥ the flat one by
//!   construction and equal to it when the geometry has no levels;
//! * [`cache_lints`] surfaces the findings as typed
//!   [`crate::analyze::PlanLint`]s: `TileOverflow` (a
//!   [`TileProgram`](xform_dataflow::OpKind::TileProgram)'s working set
//!   exceeds the level meant to hold it: a bias epilogue's tile L1 or, with
//!   its B panel, the last level; the attention region's panel of query
//!   rows with its packed K and V panels, L2), `CacheThrash` (predicted
//!   capacity-miss ratio on re-referenced words above
//!   [`THRASH_MISS_THRESHOLD`]), and `LayoutConflict` (a strided sweep
//!   whose lead dimension aliases cache sets);
//! * [`op_dram_words`] prices a single operator's layouts by predicted
//!   DRAM words (line-granular overfetch on strided sweeps) — the edge
//!   cost [`crate::selection::CostModel::CacheAware`] feeds into the
//!   SSSP layout selection.
//!
//! The model is deliberately conservative: reuse is tracked at buffer
//! granularity (Mattson's LRU stack over operand footprints), conflict
//! misses are surfaced as lints rather than subtracted from traffic, and
//! any step whose paths cannot be derived exactly falls back to flat
//! whole-buffer accounting. Predicted DRAM words therefore never exceed
//! the flat audit's byte count and are monotone non-increasing in cache
//! capacity — properties the proptests in
//! `crates/core/tests/cachemodel_properties.rs` pin down.

use std::collections::HashMap;

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_gpusim::mue::{mue, Mue, MueAccum};
use xform_gpusim::DeviceSpec;
use xform_tensor::Layout;

use crate::access::step_accesses;
use crate::analyze::{self, PlanLint, StepAccount};
use crate::lower::{lower_step, Kernel};
use crate::plan::{ExecutionPlan, Operand, PlanStep};
use crate::selection::RELAYOUT_BANDWIDTH_FRAC;
use crate::sweep::outputs_laid_out;

/// Environment variable overriding the cache geometry a tool analyzes
/// under: a [`CacheGeometry::parse`] spec, comma-separated
/// `SIZE[:LINE[:ASSOC]]` levels (e.g. `32k:64:8,1m:64:16,8m:64:16`).
/// Unset, empty, `0`, `false`, `off`, and `no` leave the tool's own
/// default — the same enable semantics as `XFORM_SANITIZE` (see
/// [`crate::env::env_setting`]).
pub const CACHE_GEOM_ENV: &str = "XFORM_CACHE_GEOM";

/// Fraction of re-referenced words that must miss the hierarchy before a
/// step is flagged [`PlanLint::CacheThrash`].
pub const THRASH_MISS_THRESHOLD: f64 = 0.5;

/// Minimum re-referenced words before a thrash ratio is meaningful.
pub const THRASH_MIN_REUSE_WORDS: u64 = 1024;

/// One cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevel {
    /// Report name (`L1`, `L2`, `LLC`, …).
    pub name: String,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Line (fetch granularity) in bytes.
    pub line_bytes: u64,
    /// Set associativity (ways).
    pub assoc: u64,
}

/// An inclusive cache hierarchy, levels ordered smallest-first. An empty
/// hierarchy models a cache-less machine: every reference reaches DRAM,
/// and the cache-corrected audit degenerates to the flat one exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheGeometry {
    /// Levels, ordered by ascending capacity.
    pub levels: Vec<CacheLevel>,
}

impl CacheGeometry {
    /// Builds a hierarchy from `levels`, dropping zero-size entries and
    /// sorting by ascending capacity.
    pub fn new(mut levels: Vec<CacheLevel>) -> CacheGeometry {
        levels.retain(|l| l.size_bytes > 0);
        levels.sort_by_key(|l| l.size_bytes);
        CacheGeometry { levels }
    }

    /// The cache-less hierarchy (no levels).
    pub fn none() -> CacheGeometry {
        CacheGeometry { levels: Vec::new() }
    }

    /// `true` when no level exists (every reference is a DRAM reference).
    pub fn is_zero(&self) -> bool {
        self.levels.is_empty()
    }

    /// Capacity of the largest level in bytes (`0` when cache-less).
    pub fn largest_bytes(&self) -> u64 {
        self.levels.last().map(|l| l.size_bytes).unwrap_or(0)
    }

    /// Smallest line size across levels in bytes (`1` when cache-less) —
    /// the DRAM-interface fetch granularity used for overfetch pricing.
    pub fn line_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.line_bytes.max(1))
            .min()
            .unwrap_or(1)
    }

    /// The modelled accelerator's hierarchy: one SM's private L1 (a tile
    /// working set either fits one SM's L1 or spills, regardless of SM
    /// count) and the device-wide L2 that backs DRAM.
    pub fn for_device(device: &DeviceSpec) -> CacheGeometry {
        let line = device.cache_line_bytes.max(1) as u64;
        CacheGeometry::new(vec![
            CacheLevel {
                name: "L1".to_string(),
                size_bytes: (device.l1_kib_per_sm as u64) << 10,
                line_bytes: line,
                assoc: 4,
            },
            CacheLevel {
                name: "L2".to_string(),
                size_bytes: (device.l2_kib as u64) << 10,
                line_bytes: line,
                assoc: 16,
            },
        ])
    }

    /// Parses a geometry spec: comma-separated `SIZE[:LINE[:ASSOC]]`
    /// levels, sizes accepting `k`/`m`/`g` suffixes. Returns `None` on
    /// any malformed field, a size that overflows `u64` included. Levels
    /// named `L1..Ln` in ascending-capacity order; the last is renamed
    /// `LLC` when three or more levels exist.
    pub fn parse(spec: &str) -> Option<CacheGeometry> {
        let mut levels = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.split(':');
            let size_bytes = parse_size(fields.next()?)?;
            let line_bytes = match fields.next() {
                Some(f) => parse_size(f)?,
                None => 64,
            };
            let assoc = match fields.next() {
                Some(f) => f.trim().parse::<u64>().ok()?,
                None => 8,
            };
            if fields.next().is_some() || line_bytes == 0 {
                return None;
            }
            levels.push(CacheLevel {
                name: String::new(),
                size_bytes,
                line_bytes,
                assoc: assoc.max(1),
            });
        }
        let mut geom = CacheGeometry::new(levels);
        let n = geom.levels.len();
        for (i, l) in geom.levels.iter_mut().enumerate() {
            l.name = if n >= 3 && i == n - 1 {
                "LLC".to_string()
            } else {
                format!("L{}", i + 1)
            };
        }
        Some(geom)
    }
}

/// Parses `32k`, `1m`, `64`, … into bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (num, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(_) => {
            let mult = match s.as_bytes()[s.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (&s[..s.len() - 1], mult)
        }
        None => (s.as_str(), 1),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// Per-step result of the reuse-distance trace.
#[derive(Debug, Clone)]
pub struct StepTraffic {
    /// Step index in the schedule.
    pub step: usize,
    /// Kernel name.
    pub name: String,
    /// The step's memlet volume (kernel reads + writes), in words.
    pub q_words: u64,
    /// Explicit relayout traffic (read + materialize per relayout).
    pub relayout_words: u64,
    /// Distinct words the derived kernel paths touch (before memlet
    /// normalization).
    pub touched_words: u64,
    /// Kernel words predicted to hit, per level, normalized to memlet
    /// volume.
    pub kernel_hits: Vec<u64>,
    /// Relayout words predicted to hit, per level.
    pub relayout_hits: Vec<u64>,
    /// Words with a finite stack distance (re-references; the step's
    /// reuse opportunity).
    pub reuse_words: u64,
    /// Re-referenced words whose stack distance exceeds every level.
    pub missed_reuse_words: u64,
}

impl StepTraffic {
    /// Total kernel hit words across levels (≤ `q_words`).
    pub fn kernel_hit_words(&self) -> u64 {
        self.kernel_hits.iter().sum::<u64>().min(self.q_words)
    }

    /// Total relayout hit words across levels (≤ `relayout_words`).
    pub fn relayout_hit_words(&self) -> u64 {
        self.relayout_hits
            .iter()
            .sum::<u64>()
            .min(self.relayout_words)
    }

    /// Predicted DRAM-interface words for the step (kernel + relayouts).
    pub fn dram_words(&self) -> u64 {
        (self.q_words - self.kernel_hit_words()) + (self.relayout_words - self.relayout_hit_words())
    }
}

/// Plan-level result of the reuse-distance trace.
#[derive(Debug, Clone)]
pub struct PlanTraffic {
    /// Per-step traffic in schedule order.
    pub per_step: Vec<StepTraffic>,
    /// Plan-level stack-distance histogram: `(log2(distance_bytes),
    /// words)` buckets, ascending, over re-references only.
    pub stack_hist: Vec<(u32, u64)>,
    /// Words whose first touch is in this plan (compulsory misses).
    pub compulsory_words: u64,
}

impl PlanTraffic {
    /// Predicted DRAM-interface words for the whole plan.
    pub fn dram_words(&self) -> u64 {
        self.per_step.iter().map(|s| s.dram_words()).sum()
    }

    /// Predicted hit words per level, summed over steps.
    pub fn hit_words(&self, levels: usize) -> Vec<u64> {
        let mut out = vec![0u64; levels];
        for s in &self.per_step {
            for (i, o) in out.iter_mut().enumerate() {
                *o += s.kernel_hits.get(i).copied().unwrap_or(0)
                    + s.relayout_hits.get(i).copied().unwrap_or(0);
            }
        }
        out
    }
}

/// One buffer resident in the LRU stack.
struct Resident {
    data: NodeId,
    words: u64,
}

/// Buffer-granular LRU stack (Mattson). `reference` returns the stack
/// distance in words of a re-reference (`None` for a compulsory first
/// touch) and promotes the buffer to MRU.
#[derive(Default)]
struct LruStack {
    entries: Vec<Resident>,
}

impl LruStack {
    fn reference(&mut self, data: NodeId, words: u64) -> Option<u64> {
        match self.entries.iter().position(|e| e.data == data) {
            Some(p) => {
                let above: u64 = self.entries[..p].iter().map(|e| e.words).sum();
                let own = self.entries[p].words.max(words);
                let mut e = self.entries.remove(p);
                e.words = own;
                self.entries.insert(0, e);
                Some(above + own)
            }
            None => {
                self.entries.insert(0, Resident { data, words });
                None
            }
        }
    }
}

/// Runs the reuse-distance abstract interpretation over a schedule.
///
/// Every step's operand accesses (and explicit relayouts, which run
/// first) are replayed as one reference stream against a buffer-granular
/// LRU stack; a reference whose stack distance fits level *i* is an
/// *i*-level hit, compulsory first touches and over-capacity distances
/// reach DRAM. Per-step hit words are normalized to the step's memlet
/// volume, so the predicted DRAM words never exceed — and with no cache
/// levels exactly equal — the flat audit's byte count.
pub fn trace_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    geometry: &CacheGeometry,
    word_bytes: u64,
) -> PlanTraffic {
    let accounts = analyze::step_accounts(graph, plan);
    trace(graph, plan, &accounts, geometry, word_bytes)
}

/// [`trace_plan`] over the plan's [`StepAccount`]s, computed once by the
/// caller.
fn trace<'a>(
    graph: &Graph,
    plan: &ExecutionPlan,
    accounts: impl IntoIterator<Item = &'a StepAccount>,
    geometry: &CacheGeometry,
    word_bytes: u64,
) -> PlanTraffic {
    let wb = word_bytes.max(1);
    let caps: Vec<u64> = geometry.levels.iter().map(|l| l.size_bytes).collect();
    let nlev = caps.len();
    let mut stack = LruStack::default();
    let mut hist: HashMap<u32, u64> = HashMap::new();
    let mut compulsory = 0u64;
    let mut per_step = Vec::with_capacity(plan.steps.len());
    for (step, account) in plan.steps.iter().zip(accounts) {
        let q = account.q_words;
        // `step_accesses` pushes two flat references (read + materialize)
        // per resolvable relayout ahead of the kernel operands.
        let n_re = 2 * step
            .relayouts
            .iter()
            .filter(|r| graph.data(r.data).is_some())
            .count();
        let sa = step_accesses(graph, step);
        let mut kernel_hits = vec![0u64; nlev];
        let mut relayout_hits = vec![0u64; nlev];
        let mut touched = 0u64;
        let mut reuse = 0u64;
        let mut missed_reuse = 0u64;
        for (ai, a) in sa.accesses.iter().enumerate() {
            let words = a.path.distinct_words();
            if words == 0 {
                continue;
            }
            let is_relayout = ai < n_re;
            if !is_relayout {
                touched += words;
            }
            match stack.reference(a.data, words) {
                Some(dist_words) => {
                    reuse += words;
                    let bytes = dist_words.saturating_mul(wb).max(1);
                    *hist.entry(bytes.ilog2()).or_insert(0) += words;
                    match caps.iter().position(|&c| dist_words * wb <= c) {
                        Some(level) => {
                            if is_relayout {
                                relayout_hits[level] += words;
                            } else {
                                kernel_hits[level] += words;
                            }
                        }
                        None => missed_reuse += words,
                    }
                }
                None => compulsory += words,
            }
        }
        // normalize kernel hits to the memlet volume: when the derived
        // paths over-cover the declared memlets, hits scale down
        // proportionally; when they under-cover (flat fallbacks, carve
        // reads), the residual words simply stay DRAM-bound.
        if touched > q && touched > 0 {
            let f = q as f64 / touched as f64;
            for h in &mut kernel_hits {
                *h = (*h as f64 * f).floor() as u64;
            }
        }
        per_step.push(StepTraffic {
            step: account.step,
            name: account.name.clone(),
            q_words: q,
            relayout_words: account.relayout_words,
            touched_words: touched,
            kernel_hits,
            relayout_hits,
            reuse_words: reuse,
            missed_reuse_words: missed_reuse,
        });
    }
    let mut stack_hist: Vec<(u32, u64)> = hist.into_iter().collect();
    stack_hist.sort_unstable();
    PlanTraffic {
        per_step,
        stack_hist,
        compulsory_words: compulsory,
    }
}

/// Predicted DRAM-interface words of a whole plan under `geometry` — the
/// quantity the cache-model proptests and `repro profile`'s
/// cross-validation consume.
pub fn plan_dram_words(
    graph: &Graph,
    plan: &ExecutionPlan,
    geometry: &CacheGeometry,
    word_bytes: u64,
) -> u64 {
    trace_plan(graph, plan, geometry, word_bytes).dram_words()
}

/// Per-step cache statistics inside a [`CacheAudit`].
#[derive(Debug, Clone)]
pub struct StepCacheStats {
    /// Step index.
    pub step: usize,
    /// Kernel name.
    pub name: String,
    /// Memlet volume in words.
    pub q_words: u64,
    /// Predicted hit words per level (kernel + relayout).
    pub hit_words: Vec<u64>,
    /// Predicted DRAM words (kernel + relayout).
    pub dram_words: u64,
    /// Cache-corrected per-step MUE, when the device model priced the
    /// step.
    pub mue: Option<Mue>,
}

/// The cache-corrected counterpart of
/// [`MovementAudit`](crate::analyze::MovementAudit).
#[derive(Debug, Clone)]
pub struct CacheAudit {
    /// The hierarchy analyzed under.
    pub geometry: CacheGeometry,
    /// Per-step statistics in schedule order.
    pub per_step: Vec<StepCacheStats>,
    /// Predicted hit words per level, plan total.
    pub hit_words: Vec<u64>,
    /// Predicted DRAM-interface words, plan total.
    pub dram_words: u64,
    /// Words first touched in this plan (compulsory misses).
    pub compulsory_words: u64,
    /// Plan-level stack-distance histogram (`log2(distance_bytes)` →
    /// words), re-references only.
    pub stack_hist: Vec<(u32, u64)>,
    /// Cache-corrected plan MUE: same `Q` as the flat audit, predicted
    /// hits discounted from `D`.
    pub plan_mue: Mue,
    /// Cache lints (tile overflow, thrash, set conflicts).
    pub lints: Vec<PlanLint>,
}

/// Prices a plan's data movement with predicted cache hits discounted —
/// the cache-corrected static MUE.
///
/// Each step's [`StepAccount`] from [`analyze::audit`] is folded the way
/// the audit folds it ([`StepAccount::fold`]: same `Q`, same
/// epilogue-interim split, same relayout pricing), with the step's
/// predicted hit words subtracted from its movement: first from the
/// modelled kernel traffic above the step's algorithmic demand, then from
/// the avoidable-interim movement, then from relayout movement. `D` never
/// drops below `Q`, every bandwidth fraction is unchanged, and a zero
/// hierarchy predicts zero hits — so the corrected MUE is ≥ the flat MUE
/// and equal to it exactly when no cache exists.
pub fn cache_audit(
    graph: &Graph,
    plan: &ExecutionPlan,
    device: &DeviceSpec,
    geometry: &CacheGeometry,
) -> CacheAudit {
    let wb = device.word_bytes as u64;
    let flat = analyze::audit(graph, plan, device);
    let accounts = flat.per_step.iter().map(|s| &s.account);
    let traffic = trace(graph, plan, accounts, geometry, wb);
    let mut acc = MueAccum::default();
    let per_step = (flat.per_step.iter().zip(&traffic.per_step))
        .map(|(s, t)| {
            let a = &s.account;
            let (kh, rh) = (t.kernel_hit_words(), t.relayout_hit_words());
            let cost = s.charged_cost(device);
            let kernel = a.fold(&mut acc, &cost, kh, rh, RELAYOUT_BANDWIDTH_FRAC);
            let hit_words: Vec<u64> = (0..geometry.levels.len())
                .map(|i| {
                    t.kernel_hits.get(i).copied().unwrap_or(0)
                        + t.relayout_hits.get(i).copied().unwrap_or(0)
                })
                .collect();
            StepCacheStats {
                step: a.step,
                name: a.name.clone(),
                q_words: a.q_words,
                hit_words,
                dram_words: t.dram_words(),
                mue: s.cost.map(|_| mue(graph, a.op, &kernel)),
            }
        })
        .collect();
    CacheAudit {
        geometry: geometry.clone(),
        per_step,
        hit_words: traffic.hit_words(geometry.levels.len()),
        dram_words: traffic.dram_words(),
        compulsory_words: traffic.compulsory_words,
        stack_hist: traffic.stack_hist.clone(),
        plan_mue: acc.total(),
        lints: cache_lints_with(graph, plan, geometry, wb, &traffic),
    }
}

/// Derives the cache lints of a plan under `geometry`:
///
/// * [`PlanLint::TileOverflow`] — a one-contraction tile program's hot
///   set (`tile_rows · (n + k)` accumulator + A-panel words) exceeds the
///   smallest level, or the tile plus the streamed `k · n` B panel
///   exceeds the largest; or a two-contraction one's working set — the
///   attention region's panels of `tile_rows · k` scores and weights and
///   one slice's packed K and V panels
///   ([`xform_tensor::into_ops::TilePlan::hot_words`]) — exceeds the second
///   level (L2), where the region is built to keep them;
/// * [`PlanLint::CacheThrash`] — a step re-references at least
///   [`THRASH_MIN_REUSE_WORDS`] words but more than
///   [`THRASH_MISS_THRESHOLD`] of them sit beyond every level's capacity;
/// * [`PlanLint::LayoutConflict`] — a swept operand's inner stride (of
///   the loop the kernel runs innermost: a sweep that runs in panels
///   steps by one word) lands every iteration in the same cache sets of
///   some level (`stride_bytes` divisible by `sets × line_bytes`).
pub fn cache_lints(
    graph: &Graph,
    plan: &ExecutionPlan,
    geometry: &CacheGeometry,
    word_bytes: u64,
) -> Vec<PlanLint> {
    let traffic = trace_plan(graph, plan, geometry, word_bytes.max(1));
    cache_lints_with(graph, plan, geometry, word_bytes.max(1), &traffic)
}

fn cache_lints_with(
    graph: &Graph,
    plan: &ExecutionPlan,
    geometry: &CacheGeometry,
    wb: u64,
    traffic: &PlanTraffic,
) -> Vec<PlanLint> {
    let mut lints = Vec::new();
    if geometry.is_zero() {
        return lints;
    }
    let first = &geometry.levels[0];
    let last = geometry.levels.last().unwrap();
    for (si, step) in plan.steps.iter().enumerate() {
        // working sets of the kernels that keep something hot between
        // contractions, each against the level meant to hold it
        let collapsed = matches!(step.kind, OpKind::TileProgram { .. });
        let lowered = collapsed.then(|| lower_step(graph, step)).flatten();
        let hot = match lowered.map(|l| l.kernel) {
            Some(Kernel::Tile { plan, .. }) => Some(match plan.second {
                // the accumulator strip and its A rows, and beside them the
                // B panel every tile of a block row reduces over
                None => {
                    let (rows, f) = (plan.tile_rows, &plan.first);
                    let tile = (rows * (f.n + f.k)) as u64;
                    let panel = tile + (f.k * f.n) as u64;
                    let spills = tile * wb > first.size_bytes;
                    if spills {
                        (tile, first)
                    } else {
                        (panel, last)
                    }
                }
                Some(_) => {
                    let l2 = geometry.levels.get(1).unwrap_or(first);
                    (plan.hot_words() as u64, l2)
                }
            }),
            _ => None,
        };
        if let Some((words, level)) = hot.filter(|(words, l)| words * wb > l.size_bytes) {
            lints.push(PlanLint::TileOverflow {
                step: si,
                name: step.name.clone(),
                tile_bytes: words * wb,
                level: level.name.clone(),
                capacity_bytes: level.size_bytes,
            });
        }
        // capacity thrash: reuse exists but overwhelmingly misses
        let t = &traffic.per_step[si];
        if t.reuse_words >= THRASH_MIN_REUSE_WORDS {
            let miss = t.missed_reuse_words as f64 / t.reuse_words as f64;
            if miss > THRASH_MISS_THRESHOLD {
                lints.push(PlanLint::CacheThrash {
                    step: si,
                    name: step.name.clone(),
                    miss_pct: miss * 100.0,
                    reuse_bytes: t.reuse_words * wb,
                });
            }
        }
        // set-aliasing strided sweeps
        let sa = step_accesses(graph, step);
        let mut seen: Vec<NodeId> = Vec::new();
        for a in &sa.accesses {
            let s = a.path.inner_stride();
            if !a.swept || s <= 1 || seen.contains(&a.data) {
                continue;
            }
            let stride_bytes = s * wb;
            for l in &geometry.levels {
                let sets = l.size_bytes / (l.line_bytes.max(1) * l.assoc.max(1));
                if sets > 1 && stride_bytes.is_multiple_of(sets * l.line_bytes.max(1)) {
                    seen.push(a.data);
                    lints.push(PlanLint::LayoutConflict {
                        step: si,
                        name: step.name.clone(),
                        container: a.name.clone(),
                        stride_words: s,
                        level: l.name.clone(),
                    });
                    break;
                }
            }
        }
    }
    lints
}

/// Predicted DRAM words of a single operator under candidate layouts —
/// the [`CostModel::CacheAware`](crate::selection::CostModel) edge cost.
///
/// A synthetic single-step schedule is built with `in_layout` on the
/// flowing input, `out_layout` on the primary output, and natural layouts
/// elsewhere; its derived access paths are priced with line-granular
/// overfetch: a sweep at inner stride `s > 1` pays `min(s, line_words)`
/// DRAM words per useful word. The inner stride is that of the walk the
/// executor runs ([`crate::access`]): a strided lane whose neighbours are
/// adjacent words runs in panels and overfetches nothing. Returns `(useful_words, dram_words)`, or
/// `None` when the operator has no data operands.
pub fn op_dram_words(
    graph: &Graph,
    op: NodeId,
    flowing_input: usize,
    in_layout: Layout,
    out_layout: Layout,
    geometry: &CacheGeometry,
    word_bytes: u64,
) -> Option<(u64, u64)> {
    let node = graph.op(op)?;
    let operand = |id: NodeId, layout: Option<Layout>| -> Option<Operand> {
        let d = graph.data(id)?;
        Some(Operand {
            data: id,
            name: d.name.clone(),
            layout: layout.unwrap_or_else(|| Layout::row_major(d.shape.rank())),
        })
    };
    let in_ids = graph.inputs_of(op);
    let out_ids = graph.outputs_of(op);
    if in_ids.is_empty() || out_ids.is_empty() {
        return None;
    }
    let inputs: Vec<Operand> = in_ids
        .iter()
        .enumerate()
        .map(|(k, &id)| operand(id, (k == flowing_input).then_some(in_layout)))
        .collect::<Option<Vec<_>>>()?;
    // the primary output, where the configuration lays it out
    let primary = outputs_laid_out(graph, op)[0].then_some(out_layout);
    let outputs: Vec<Operand> = out_ids
        .iter()
        .enumerate()
        .map(|(k, &id)| operand(id, primary.filter(|_| k == 0)))
        .collect::<Option<Vec<_>>>()?;
    let step = PlanStep {
        op,
        name: node.name.clone(),
        kind: node.kind.clone(),
        inputs,
        outputs,
        relayouts: Vec::new(),
    };
    let line_words = (geometry.line_bytes() / word_bytes.max(1)).max(1);
    let mut useful = 0u64;
    let mut dram = 0u64;
    for a in step_accesses(graph, &step).accesses {
        let words = a.path.distinct_words();
        let s = a.path.inner_stride();
        let inflation = if a.swept && s > 1 {
            s.min(line_words)
        } else {
            1
        };
        useful += words;
        dram += words.saturating_mul(inflation);
    }
    Some((useful, dram))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_epilogues, apply_plan, encoder_fusion_plan};
    use crate::plan::testing::rotated;
    use crate::plan::ExecutionPlan;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};

    fn fused() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    fn epilogue() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        apply_epilogues(&mut g).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    #[test]
    fn parse_geometry_specs() {
        let g = CacheGeometry::parse("32k:64:8,1m:64:16,8m:64:16").unwrap();
        assert_eq!(g.levels.len(), 3);
        assert_eq!(g.levels[0].size_bytes, 32 << 10);
        assert_eq!(g.levels[2].name, "LLC");
        assert_eq!(g.line_bytes(), 64);
        // defaults for omitted fields, sorting, suffixes
        let g = CacheGeometry::parse("8m,32k").unwrap();
        assert_eq!(g.levels[0].size_bytes, 32 << 10);
        assert_eq!(g.levels[1].size_bytes, 8 << 20);
        assert!(CacheGeometry::parse("lol").is_none());
        assert!(CacheGeometry::parse("32k:0").is_none());
    }

    /// A typical desktop hierarchy: 32 KiB L1d, 1 MiB L2, 8 MiB LLC.
    fn desktop() -> CacheGeometry {
        CacheGeometry::parse("32k:64:8,1m:64:16,8m:64:16").unwrap()
    }

    #[test]
    fn a_size_that_overflows_is_malformed() {
        assert!(CacheGeometry::parse("20000000000g").is_none());
        assert!(CacheGeometry::parse("32k:20000000000g").is_none());
        assert!(CacheGeometry::parse("17179869183g").is_some());
    }

    #[test]
    fn zero_geometry_predicts_exactly_the_flat_bytes() {
        for (g, plan) in [fused(), epilogue()] {
            let d = DeviceSpec::v100();
            let flat = analyze::audit(&g, &plan, &d);
            let wb = d.word_bytes as u64;
            let dram = plan_dram_words(&g, &plan, &CacheGeometry::none(), wb);
            assert_eq!(dram * wb, flat.total_bytes());
        }
    }

    #[test]
    fn bigger_caches_never_increase_predicted_dram() {
        let (g, plan) = fused();
        let small = CacheGeometry::parse("4k:64:4").unwrap();
        let big = CacheGeometry::parse("4k:64:4,16m:64:16").unwrap();
        let d0 = plan_dram_words(&g, &plan, &CacheGeometry::none(), 2);
        let d1 = plan_dram_words(&g, &plan, &small, 2);
        let d2 = plan_dram_words(&g, &plan, &big, 2);
        assert!(d1 <= d0);
        assert!(d2 <= d1);
    }

    #[test]
    fn cache_mue_is_at_least_flat_and_equal_when_zero() {
        let d = DeviceSpec::v100();
        for (g, plan) in [fused(), epilogue()] {
            let flat = analyze::audit(&g, &plan, &d);
            let zero = cache_audit(&g, &plan, &d, &CacheGeometry::none());
            assert!((zero.plan_mue.value - flat.plan_mue.value).abs() < 1e-9);
            let host = cache_audit(&g, &plan, &d, &desktop());
            assert!(host.plan_mue.value >= flat.plan_mue.value - 1e-9);
            assert!(host.dram_words <= zero.dram_words);
            assert!((host.plan_mue.q_words - flat.plan_mue.q_words).abs() < 1e-6);
        }
    }

    #[test]
    fn epilogue_plan_stays_strictly_ahead_under_device_geometry() {
        let d = DeviceSpec::v100();
        let geom = CacheGeometry::for_device(&d);
        let (gf, pf) = fused();
        let (ge, pe) = epilogue();
        let cf = cache_audit(&gf, &pf, &d, &geom);
        let ce = cache_audit(&ge, &pe, &d, &geom);
        assert!((cf.plan_mue.q_words - ce.plan_mue.q_words).abs() < 1e-6);
        assert!(ce.plan_mue.value > cf.plan_mue.value);
    }

    #[test]
    fn strided_flowing_layout_prices_more_dram() {
        let (g, plan) = fused();
        let geom = desktop();
        // find a normalization step with a rank≥2 flowing input
        for step in &plan.steps {
            let nat = step.inputs[0].layout;
            if nat.rank() < 2 {
                continue;
            }
            let rev = rotated(nat);
            let out = step.outputs[0].layout;
            let Some((u_nat, d_nat)) = op_dram_words(&g, step.op, 0, nat, out, &geom, 4) else {
                continue;
            };
            let Some((u_rev, d_rev)) = op_dram_words(&g, step.op, 0, rev, out, &geom, 4) else {
                continue;
            };
            assert_eq!(u_nat, u_rev);
            if d_rev > d_nat {
                return; // at least one step shows the strided penalty
            }
        }
        panic!("no step showed a strided-layout DRAM penalty");
    }
}
