//! The repository's benchmark: end-to-end and per-layer cost of the CBWS
//! simulator on three workloads.
//!
//! ```text
//! perfbench --workload matrix-warm|stream-huge|serve-mixed --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets up the workload several times (generating its
//! traces into a fresh store each time), measures whole rounds of the
//! workload for at least `S` seconds, checks every output, and prints the
//! end-to-end metrics. With `--trace 1` it runs the per-layer ladder and
//! probes instead, with spans recorded around every layer call. The last
//! line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! All scratch state lives under `.perfbench/` in the working directory;
//! traces and result stores are deleted again at exit, span dumps kept.
//! See `NOISE.md` beside this file for the host noise the design answers.

mod alloc;
mod batch;
mod layers;
mod serve;
mod spans;
mod util;

use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{by_name, Scale, WorkloadSpec, ALL};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{median, Checks, Metric};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 30 workloads x 7 prefetchers at scale full, replayed
    /// from a warm trace store by the engine with the result cache off.
    MatrixWarm,
    /// Memory-intensive workloads at scale huge, every trace streamed
    /// from disk, under No-Prefetch and Stride on one worker.
    StreamHuge,
    /// A sweep server on an empty result store, driven closed-loop with a
    /// seeded sequence of overlapping multi-job `/v1/sweep` requests.
    ServeMixed,
}

/// The memory-intensive workloads `stream-huge` replays: the four with
/// the fewest events at scale huge (3.6M-5.3M each), so a one-worker run
/// completes enough jobs for its latency percentiles.
pub const STREAM_SET: [&str; 4] = [
    "433.milc-su3imp",
    "stencil-default",
    "lbm-long",
    "mri-q-large",
];

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "matrix-warm" => Some(Workload::MatrixWarm),
            "stream-huge" => Some(Workload::StreamHuge),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixWarm => "matrix-warm",
            Workload::StreamHuge => "stream-huge",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::MatrixWarm => Scale::Full,
            Workload::StreamHuge => Scale::Huge,
            Workload::ServeMixed => Scale::Small,
        }
    }

    /// The trace set this workload's set-up generates.
    pub fn traces(self) -> Vec<&'static WorkloadSpec> {
        match self {
            Workload::StreamHuge => STREAM_SET
                .iter()
                .map(|n| by_name(n).expect("stream set names registered workloads"))
                .collect(),
            _ => ALL.iter().collect(),
        }
    }

    /// Set-up repetitions whose median is `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ServeMixed => 9,
            _ => 5,
        }
    }
}

/// Engine workers and client connections: the host's cores, at most two,
/// so the offered load is the same on any host with two or more cores.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Per-run scratch layout under `.perfbench/<workload>/`.
pub struct Work {
    pub root: PathBuf,
    /// The warm trace store every measured phase replays from; the
    /// process-wide store points here (`CBWS_TRACE_STORE_DIR`).
    pub traces: PathBuf,
}

impl Work {
    fn new(workload: Workload) -> Work {
        let root = Path::new(".perfbench").join(workload.name());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the benchmark's work directory");
        let root = root
            .canonicalize()
            .expect("work directory has a canonical path");
        Work {
            traces: root.join("traces"),
            root,
        }
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

/// What set-up produced: its repetition times and the per-trace event
/// counts the throughput metrics are computed from.
pub struct Setup {
    pub seconds: Vec<f64>,
    pub events: HashMap<&'static str, u64>,
}

impl Setup {
    pub fn total_events(&self) -> u64 {
        self.events.values().sum()
    }
}

/// Generates the workload's traces cold into a fresh store at `dir`
/// (the streaming writer at scale huge) and returns the seconds it took
/// with each trace's event count.
pub fn generate(workload: Workload, dir: &Path) -> (f64, HashMap<&'static str, u64>) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = TraceStore::at(dir);
    let mut events = HashMap::new();
    for w in workload.traces() {
        let n = match workload {
            Workload::StreamHuge => {
                cbws_trace::EventSource::event_count(&store.replay_source(w, Scale::Huge, 0))
            }
            _ => store.get(w, workload.scale()).event_count(),
        };
        events.insert(w.name, n as u64);
    }
    drop(store);
    (start.elapsed().as_secs_f64(), events)
}

/// Sets the workload up `reps` times, each into a fresh trace store at
/// `work.traces`; the last repetition leaves the store warm. Serve-mixed
/// set-up also brings a sweep server up and down, since every measured
/// round starts one.
fn setup(workload: Workload, work: &Work, reps: usize) -> Setup {
    let mut seconds = Vec::with_capacity(reps);
    let mut events = HashMap::new();
    for _ in 0..reps {
        let start = Instant::now();
        (_, events) = generate(workload, &work.traces);
        if workload == Workload::ServeMixed {
            serve::ServerChild::spawn(&work.dir("setup-results")).stop();
        }
        seconds.push(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(work.dir("setup-results"));
    Setup { seconds, events }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload matrix-warm|stream-huge|serve-mixed \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let value = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = value("--workload");
    Args {
        workload: Workload::parse(&workload)
            .unwrap_or_else(|| usage(&format!("unknown workload `{workload}`"))),
        seed: value("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed takes an unsigned integer")),
        seconds: value("--seconds")
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: match value("--trace").as_str() {
            "0" => false,
            "1" => true,
            other => usage(&format!("--trace takes 0 or 1, not `{other}`")),
        },
    }
}

/// Points the process-wide stores at the work directory and clears every
/// environment knob that would change what the program does.
fn pin_environment(work: &Work) {
    for var in [
        "CBWS_STREAM_THRESHOLD_BYTES",
        "CBWS_TRACE_FRAME_EVENTS",
        "CBWS_TRACE_CACHE_BYTES",
        "CBWS_RESULT_CACHE_BYTES",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var(cbws_workloads::trace_store::DIR_ENV, &work.traces);
    std::env::set_var(cbws_harness::result_store::DIR_ENV, work.dir("results"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        serve::child_main(&args[1..]);
        return;
    }
    let args = parse_args(&args);
    cbws_telemetry::log::set_level(cbws_telemetry::log::Verbosity::Quiet);
    let work = Work::new(args.workload);
    // Before any thread exists: nothing else reads the environment yet.
    pin_environment(&work);

    let mut checks = Checks::default();
    let metrics = if args.trace {
        layers::run(args.workload, args.seed, &work, &mut checks)
    } else {
        end_to_end(&args, &work, &mut checks)
    };
    for m in &metrics {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        println!("{:<44} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // Stores and traces go; the span dump stays.
    for entry in std::fs::read_dir(&work.root)
        .into_iter()
        .flatten()
        .flatten()
    {
        if entry.path().is_dir() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let correct = checks.failed == 0;
    println!(
        "{}",
        util::result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn end_to_end(args: &Args, work: &Work, checks: &mut Checks) -> Vec<Metric> {
    let setup = setup(args.workload, work, args.workload.setup_reps());
    println!(
        "{} seed {}: set-up {:?} s over {} traces, {} events",
        args.workload.name(),
        args.seed,
        setup.seconds,
        setup.events.len(),
        setup.total_events()
    );
    let phase = match args.workload {
        Workload::ServeMixed => serve::measure(args.seed, args.seconds, &setup, work, checks),
        w => batch::measure(w, args.seed, args.seconds, &setup, work, checks),
    };
    let mut metrics = vec![util::metric("setup_s", median(&setup.seconds), "s")];
    metrics.extend(phase.metrics(checks));
    metrics
}
