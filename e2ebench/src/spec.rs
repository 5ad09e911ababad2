//! The three workloads. Every workload drives the same user path —
//! cold synthesis, batch execution, streaming and serving — so every
//! end-to-end metric is measured on each; they differ in the program
//! list, the input scale and the share of time each path gets.

/// Leaves of the small seeded input every plan is verified on against
/// the sequential interpreter.
pub const ORACLE_LEAVES: usize = 2_048;

/// Hit requests per serve batch; every batch also sends one miss.
pub const HITS_PER_BATCH: usize = 20;

/// Programs the daemon serves from its cache (`serve_hit_p50_ms`):
/// suite benchmarks that synthesize in milliseconds under the daemon's
/// default input profile.
pub const HIT_CORPUS: &[&str] = &["sum", "min_max", "max_top_strip", "max_top_box"];

/// Template of the cache misses (`serve_miss_p50_ms`): max-top-strip
/// over scaled elements. Every miss gets a scale factor the daemon has
/// not seen, hence a new normalized-form fingerprint, at the same
/// millisecond-scale synthesis cost.
pub const MISS_TEMPLATE: &str = "
input a : seq<seq<int>>;
state cur : int = 0;
state mts : int = 0;
for i in 0 .. len(a) {
  let row : int = 0;
  for j in 0 .. len(a[i]) { row = row + a[i][j] * SCALE; }
  cur = cur + row;
  mts = max(mts, cur);
}
return mts;
";

/// The program used for `exec.fallback_el_per_s` when a workload's own
/// list holds no plan outside compiler coverage (it synthesizes in
/// milliseconds and keeps a sequence-typed state).
pub const FALLBACK_PROBE: &str = "saddle_point";

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Suite benchmark ids, in slot order.
    pub programs: Vec<&'static str>,
    /// Leaves per input type for batch execution.
    pub exec_leaves: usize,
    /// (1-thread, nproc) `execute` pairs per slot.
    pub exec_pairs: usize,
    /// Leaves per input type for streaming.
    pub stream_leaves: usize,
    /// Chunks per streaming call.
    pub stream_chunks: usize,
    /// Streaming calls per slot.
    pub stream_calls: usize,
    /// Serve batches (`HITS_PER_BATCH` hits + 1 miss) per slot.
    pub serve_batches: usize,
}

/// The Figure-9 plans of `exec_batch` and `stream_serve`: all compile,
/// and they cover 1-D, 2-D and 3-D inputs.
const EXEC_PLANS: &[&str] = &[
    "sum",
    "min_max",
    "max_top_strip",
    "max_bottom_strip",
    "mbbs",
    "max_dist",
];

/// The synthesis programs of `synth_cold` (see README.md for why each
/// is on the list).
const SYNTH_PROGRAMS: &[&str] = &[
    "max_bottom_strip",
    "mbbs",
    "max_dist",
    "increasing_ranges",
    "diagonal_gradient",
    "min_max_col",
    "mode",
    "max_bot_left_rect",
    "saddle_point",
    "max_top_box",
];

/// The workload called `name`. `tiny` shrinks inputs and keeps only
/// programs that synthesize in well under a second (the smoke test).
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let fast = |ids: &[&'static str]| -> Vec<&'static str> {
        const FAST: &[&str] = &[
            "sum",
            "min_max",
            "max_top_strip",
            "mode",
            "max_bot_left_rect",
            "saddle_point",
            "max_top_box",
        ];
        ids.iter()
            .copied()
            .filter(|id| !tiny || FAST.contains(id))
            .collect()
    };
    let scale = |leaves: usize| if tiny { ORACLE_LEAVES * 2 } else { leaves };
    let spec = match name {
        "synth_cold" => Spec {
            name: "synth_cold",
            programs: fast(SYNTH_PROGRAMS),
            exec_leaves: ORACLE_LEAVES,
            exec_pairs: 50,
            stream_leaves: ORACLE_LEAVES,
            stream_chunks: 4,
            stream_calls: 20,
            serve_batches: 6,
        },
        "exec_batch" => Spec {
            name: "exec_batch",
            programs: fast(EXEC_PLANS),
            exec_leaves: scale(10_000_000),
            exec_pairs: 1,
            stream_leaves: scale(1_000_000),
            stream_chunks: 8,
            stream_calls: 3,
            serve_batches: 4,
        },
        "stream_serve" => Spec {
            name: "stream_serve",
            programs: fast(EXEC_PLANS),
            exec_leaves: scale(1_000_000),
            exec_pairs: 1,
            stream_leaves: scale(1_000_000),
            stream_chunks: 16,
            stream_calls: 4,
            serve_batches: 8,
        },
        _ => return None,
    };
    Some(spec)
}
