//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, correctness oracles, and a separate
//! traced run that breaks the time down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matrix-cold|maintain-xmark|serve-traffic> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads, the metrics and the layer
//! predictions.

mod analysis;
mod client;
mod maintain;
mod matrix;
mod report;
mod serve;
mod trace;

use std::collections::HashMap;

/// Every per-layer metric of the traced run, with its unit. A layer a
/// workload never calls reads `0`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("cdag.infer_ms", "ms"),
    ("cdag.replay_inferences", "count"),
    ("cdag.inferences", "count"),
    ("cdag.cache_hits", "count"),
    ("explicit.infer_ms", "ms"),
    ("explicit.inferences", "count"),
    ("explicit.overflows", "count"),
    ("conflict.check_ms", "ms"),
    ("conflict.cells", "count"),
    ("session.unattributed_ms", "ms"),
    ("xquery.parse_ms", "ms"),
    ("xmlstore.parse_ms", "ms"),
    ("xmlstore.bytes_per_node", "B"),
    ("xmlstore.copy_ms", "ms"),
    ("eval.materialize_ms", "ms"),
    ("eval.reevaluations", "count"),
    ("eval.ms_per_reevaluation", "ms"),
    ("update.apply_ms", "ms"),
    ("delta.classify_ms", "ms"),
    ("delta.classifications", "count"),
    ("maintain.skip_share", "ratio"),
    ("service.handle_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("protocol.json_ms", "ms"),
    ("session.cache_hit_rate", "ratio"),
    ("service.rejected", "count"),
    ("service.backlog_max", "count"),
    ("generator.lag_p99_ms", "ms"),
    ("op.check_ms", "ms"),
    ("op.batch_ms", "ms"),
    ("op.edit_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values filled by a traced run.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// The command-line settings of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Worker threads and client connections (`available_parallelism`).
    pub nproc: usize,
}

/// SplitMix64: the benchmark's own seeded choices (orders, batch sizes).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <matrix-cold|maintain-xmark|serve-traffic> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-expected <file>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        opts.insert(flag.as_str(), value.as_str());
    }
    if let Some(path) = opts.get("--write-expected") {
        matrix::write_expected(path);
        return;
    }
    let parse = |key: &str| -> u64 {
        opts.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    let run = Run {
        seed: parse("--seed"),
        seconds: parse("--seconds").max(1),
        trace: parse("--trace") == 1,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (mut out, layers) = match opts.get("--workload").copied() {
        Some("matrix-cold") => matrix::run(&run),
        Some("maintain-xmark") => maintain::run(&run),
        Some("serve-traffic") => serve::run(&run),
        _ => usage(),
    };
    if run.trace {
        out.metrics.clear();
        for (name, unit) in PER_LAYER {
            let value = layers.0.get(name).copied().unwrap_or(0.0);
            out.metric(name, value, unit);
        }
    }
    out.print();
}
