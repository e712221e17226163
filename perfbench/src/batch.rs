//! The batch workloads, `matrix-warm` and `stream-huge`: whole sweeps run
//! in-process through `SweepSession::run`, round after round.

use crate::util::{self, Checks, Phase, Rng, MIN_LATENCY_SAMPLES, PHASE_CAP_S};
use crate::{parallelism, Setup, Work, Workload};
use cbws_harness::{EngineRun, JobObserver, PrefetcherKind, Simulator, SweepSession, SweepSpec};
use cbws_stats::RunRecord;
use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{Group, Scale};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The prefetchers `stream-huge` replays under: the ones with next to no
/// prefetcher work, so its time stays in the trace and simulator layers.
pub const STREAM_KINDS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::Stride];

/// The sweep one round of a batch workload runs. The matrix is the
/// paper's, in figure order; `stream-huge` takes its workloads in a
/// seeded order (the set is fixed so that every seed does the same work).
pub fn spec(workload: Workload, seed: u64) -> SweepSpec {
    match workload {
        Workload::StreamHuge => {
            let mut workloads = workload.traces();
            Rng::new(seed).shuffle(&mut workloads);
            SweepSpec {
                workloads,
                kinds: STREAM_KINDS.to_vec(),
                scale: Scale::Huge,
                jobs: 1,
                system: Default::default(),
                stream_threshold_bytes: Some(0),
            }
        }
        _ => SweepSpec::full_matrix(workload.scale(), parallelism()),
    }
}

thread_local! {
    /// When the current thread's previous job finished in this round.
    static LAST_DONE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs one sweep and returns it with each job's latency in ms: the time
/// from the worker's previous job (or the round's start) to this one's
/// completion, as the engine's observer sees it.
pub fn round(session: &SweepSession, spec: &SweepSpec) -> (EngineRun, Vec<f64>) {
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(spec.job_count())));
    // The one-worker engine runs jobs on this thread; pool workers are
    // fresh threads every round.
    LAST_DONE.with(|c| c.set(None));
    let start = Instant::now();
    let observer: JobObserver = {
        let latencies = Arc::clone(&latencies);
        Arc::new(move |_| {
            let now = Instant::now();
            let prev = LAST_DONE.with(|c| c.replace(Some(now))).unwrap_or(start);
            latencies
                .lock()
                .expect("latency log lock is never poisoned")
                .push((now - prev).as_secs_f64() * 1e3);
            true
        })
    };
    let run = session.run("perfbench", spec, Some(observer)).run;
    let latencies = std::mem::take(&mut *latencies.lock().expect("latency log lock"));
    (run, latencies)
}

/// Checks one sweep's records: one per job, every Fig. 13 classification
/// a partition, and equal instruction counts across the prefetchers of
/// each workload. Returns the records digest.
pub fn check_records(records: &[RunRecord], spec: &SweepSpec, checks: &mut Checks) -> u64 {
    checks.check(
        records.len() == spec.job_count(),
        &format!("{} records for {} jobs", records.len(), spec.job_count()),
    );
    checks.check(
        records.iter().all(|r| r.mem.classification_is_partition()),
        "every record's Fig. 13 classification partitions its L2 demand accesses",
    );
    let mut instructions: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in records {
        instructions
            .entry(&r.workload)
            .or_default()
            .push(r.cpu.instructions);
    }
    checks.check(
        instructions
            .values()
            .all(|v| v.windows(2).all(|w| w[0] == w[1])),
        "instruction counts are equal across prefetchers per workload",
    );
    let lines: Vec<String> = records.iter().map(util::record_line).collect();
    util::digest(lines.iter().map(String::as_str))
}

/// Measures whole rounds for at least `seconds` and until the latency
/// percentiles have their samples.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    setup: &Setup,
    work: &Work,
    checks: &mut Checks,
) -> Phase {
    let spec = spec(workload, seed);
    let session = SweepSession::default();
    let mut phase = Phase::default();
    let mut first: Option<(u64, Vec<RunRecord>)> = None;
    let mut rounds = 0;
    while phase.wall_s < seconds || phase.latencies_ms.len() < MIN_LATENCY_SAMPLES {
        let start = Instant::now();
        let (run, latencies) = round(&session, &spec);
        let wall = start.elapsed().as_secs_f64();
        eprintln!("perfbench: round {rounds} took {wall:.3} s");
        phase.wall_s += wall;
        rounds += 1;
        checks.attempted += spec.job_count() as u64;
        checks.failed += (spec.job_count() - run.records.len()) as u64;
        phase.requests += run.records.len() as u64;
        phase.events += run
            .records
            .iter()
            .map(|r| setup.events[r.workload.as_str()])
            .sum::<u64>();
        phase.latencies_ms.extend(latencies);
        let digest = check_records(&run.records, &spec, checks);
        let (first_digest, _) = first.get_or_insert((digest, run.records));
        checks.check(
            digest == *first_digest,
            "every round's records equal the first round's",
        );
        if phase.wall_s > PHASE_CAP_S {
            break;
        }
    }
    phase.peak_rss_mb = util::peak_rss_mb();
    // In workload-name order, so the digest does not depend on the seed.
    let (_, mut records) = first.expect("at least one round ran");
    records.sort_by(|a, b| a.workload.cmp(&b.workload));
    let lines: Vec<String> = records.iter().map(util::record_line).collect();
    println!(
        "{}: {rounds} rounds, {} jobs, records digest {:016x}",
        workload.name(),
        phase.requests,
        util::digest(lines.iter().map(String::as_str))
    );
    if workload == Workload::StreamHuge {
        check_streamed_equals_memory(&spec, work, checks);
    }
    phase
}

/// Replays the stream set at scale full both ways — streamed from disk
/// through the read-ahead cursor, and resident in memory — and checks
/// the records are identical.
fn check_streamed_equals_memory(spec: &SweepSpec, work: &Work, checks: &mut Checks) {
    let dir = work.dir("full-check");
    let store = TraceStore::at(&dir);
    let sim = Simulator::new(spec.system);
    for &w in &spec.workloads {
        // Streamed first: once a trace is resident the store serves it
        // from memory.
        let streamed = store.replay_source(w, Scale::Full, 0);
        checks.check(
            streamed.is_streamed(),
            "scale-full replay with threshold 0 streams",
        );
        let resident = store.get(w, Scale::Full);
        let mi = w.group == Group::MemoryIntensive;
        for &kind in &spec.kinds {
            let a = sim.run(w.name, mi, &streamed, kind);
            let b = sim.run(w.name, mi, &*resident, kind);
            checks.check(
                a == b,
                &format!(
                    "streamed and in-memory records of {}/{}",
                    w.name,
                    kind.name()
                ),
            );
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
