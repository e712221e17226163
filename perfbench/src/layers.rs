//! The traced run: each layer timed from outside through its public
//! functions, with a span recorded around every call.
//!
//! The ladder replays the workload's traces one layer at a time — cursor
//! drain, core over an ideal memory, core over the bare hierarchy, then a
//! full `Simulator::run` per prefetcher — with every row timed back to
//! back on the same trace and the row order reversed on alternate passes,
//! so a row and its base share the host's speed regime and their ratio
//! holds steady while absolute times drift.

use crate::alloc;
use crate::batch::{self, STREAM_KINDS};
use crate::serve::{self, ServerChild};
use crate::spans;
use crate::util::{median, metric, Checks, Metric, Rng};
use crate::{parallelism, Work, Workload};
use cbws_harness::result_store::{ResultKey, ResultStore};
use cbws_harness::{PrefetcherKind, ResultCache, Simulator, SweepSession, SweepSpec, SystemConfig};
use cbws_sim_cpu::{Core, IdealMemory};
use cbws_sim_mem::MemoryHierarchy;
use cbws_stats::RunRecord;
use cbws_telemetry::Spans;
use cbws_trace::{EventCursor, FramedTrace, ReplaySource};
use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{Group, WorkloadSpec, ALL};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy)]
enum Row {
    /// `EventCursor::next_batch` over the in-memory trace.
    Drain,
    /// `Core::run` over `IdealMemory`.
    Ideal,
    /// `Core::run` over a bare `MemoryHierarchy`: the base of every
    /// prefetcher row.
    Hierarchy,
    /// `Simulator::run` under one prefetcher.
    Sim(PrefetcherKind),
}

const ROWS: [Row; 10] = [
    Row::Drain,
    Row::Ideal,
    Row::Hierarchy,
    Row::Sim(PrefetcherKind::None),
    Row::Sim(PrefetcherKind::Stride),
    Row::Sim(PrefetcherKind::GhbPcDc),
    Row::Sim(PrefetcherKind::GhbGDc),
    Row::Sim(PrefetcherKind::Sms),
    Row::Sim(PrefetcherKind::Cbws),
    Row::Sim(PrefetcherKind::CbwsSms),
];
const HIERARCHY: usize = 2;

/// The metric prefix of a prefetcher row: the paper's baselines under
/// `prefetchers.`, its own schemes under `core.`.
fn prefix(kind: PrefetcherKind) -> &'static str {
    match kind {
        PrefetcherKind::None => "prefetchers.none",
        PrefetcherKind::Stride => "prefetchers.stride",
        PrefetcherKind::GhbPcDc => "prefetchers.ghb-pc-dc",
        PrefetcherKind::GhbGDc => "prefetchers.ghb-g-dc",
        PrefetcherKind::Sms => "prefetchers.sms",
        PrefetcherKind::Cbws => "core.cbws",
        PrefetcherKind::CbwsSms => "core.cbws-sms",
        other => unreachable!("{} is not on the ladder", other.name()),
    }
}

fn row_name(row: Row) -> String {
    match row {
        Row::Drain => "ladder.drain".into(),
        Row::Ideal => "ladder.core-ideal".into(),
        Row::Hierarchy => "ladder.core-hierarchy".into(),
        Row::Sim(kind) => format!("ladder.{}", prefix(kind)),
    }
}

/// Passes over the trace set: enough that the ladder takes a few seconds
/// per row group at every scale.
fn ladder_passes(workload: Workload) -> usize {
    match workload {
        Workload::ServeMixed => 6,
        _ => 2,
    }
}

/// Runs one row over one trace; returns its seconds, its allocations, and
/// the record when the row is a full simulation.
fn time_row(
    row: Row,
    w: &WorkloadSpec,
    trace: &FramedTrace,
    sys: &SystemConfig,
) -> (f64, u64, Option<RunRecord>) {
    let allocs = alloc::count();
    let start = Instant::now();
    let mut record = None;
    match row {
        Row::Drain => {
            let mut cursor = trace.cursor();
            let mut n = 0usize;
            while let Some(batch) = cursor.next_batch() {
                n += black_box(batch).len();
            }
            black_box(n);
        }
        Row::Ideal => {
            let mut mem = IdealMemory {
                latency: sys.mem.l1_hit_latency(),
            };
            black_box(Core::new(sys.core).run(trace, &mut mem));
        }
        Row::Hierarchy => {
            let mut mem = MemoryHierarchy::new(sys.mem);
            black_box(Core::new(sys.core).run(trace, &mut mem));
        }
        Row::Sim(kind) => {
            let mi = w.group == Group::MemoryIntensive;
            record = Some(Simulator::new(*sys).run(w.name, mi, trace, kind));
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, alloc::count() - allocs, record)
}

/// The ladder rows' metrics plus every record the first pass simulated.
fn ladder(
    workload: Workload,
    traces: &[(&'static WorkloadSpec, Arc<FramedTrace>)],
    spans: &Spans,
) -> (
    Vec<Metric>,
    Vec<(&'static WorkloadSpec, PrefetcherKind, RunRecord)>,
) {
    let sys = SystemConfig::default();
    let mut seconds = [0.0f64; ROWS.len()];
    let mut allocs = [0u64; ROWS.len()];
    let mut records = Vec::new();
    let events_per_pass: u64 = traces.iter().map(|(_, t)| t.event_count() as u64).sum();
    let passes = ladder_passes(workload);
    for pass in 0..passes {
        for (w, trace) in traces {
            let mut order: Vec<usize> = (0..ROWS.len()).collect();
            if pass % 2 == 1 {
                order.reverse();
            }
            for r in order {
                let guard = spans.begin(&row_name(ROWS[r]));
                guard.attr("req", format!("ladder-{pass}-{}", w.name));
                let (s, a, record) = time_row(ROWS[r], w, trace, &sys);
                drop(guard);
                seconds[r] += s;
                if pass == 0 {
                    allocs[r] += a;
                    if let (Row::Sim(kind), Some(record)) = (ROWS[r], record) {
                        records.push((*w, kind, record));
                    }
                }
            }
        }
    }
    let events = (events_per_pass * passes as u64) as f64;
    let ns = |r: usize| seconds[r] * 1e9 / events;
    let mut m = vec![
        metric("trace.drain_ns_per_event", ns(0), "ns/event"),
        metric("sim-cpu.ns_per_event", ns(1), "ns/event"),
        metric("sim-mem.ns_per_event", ns(HIERARCHY) - ns(1), "ns/event"),
    ];
    for (r, row) in ROWS.iter().enumerate() {
        if let Row::Sim(kind) = row {
            let p = prefix(*kind);
            m.push(metric(
                format!("{p}.ns_per_event"),
                ns(r) - ns(HIERARCHY),
                "ns/event",
            ));
            m.push(metric(
                format!("{p}.ratio"),
                seconds[r] / seconds[HIERARCHY],
                "ratio",
            ));
            m.push(metric(
                format!("{p}.allocs_per_event"),
                allocs[r] as f64 / events_per_pass as f64,
                "allocs/event",
            ));
            println!(
                "{p}: {} allocations over {events_per_pass} events",
                allocs[r]
            );
        }
    }
    (m, records)
}

/// Streamed replay (`trace.stream_*`, `trace.bytes_per_event`) and the
/// verified warm load (`workloads.load_ms`).
fn trace_rows(workload: Workload, work: &Work, spans: &Spans, checks: &mut Checks) -> Vec<Metric> {
    let scale = workload.scale();
    let store = TraceStore::at(&work.traces);
    let (mut seconds, mut events, mut frames, mut stalls, mut bytes) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    for pass in 0..ladder_passes(workload) {
        for w in workload.traces() {
            let ReplaySource::Streamed(trace) = store.replay_source(w, scale, 0) else {
                checks.check(
                    false,
                    &format!("{} replays streamed at threshold 0", w.name),
                );
                continue;
            };
            let guard = spans.begin("trace.stream-drain");
            guard.attr("req", format!("stream-{pass}-{}", w.name));
            let start = Instant::now();
            let mut cursor = trace.cursor();
            let mut n = 0usize;
            while let Some(batch) = cursor.next_batch() {
                n += black_box(batch).len();
            }
            seconds += start.elapsed().as_secs_f64();
            drop(guard);
            let stats = cursor.stats();
            events += n as u64;
            frames += stats.frames;
            stalls += stats.stalls;
            bytes += stats.bytes;
        }
    }
    drop(store);
    let store = TraceStore::at(&work.traces);
    let mut load_ms = Vec::new();
    for pass in 0..ladder_passes(workload) {
        store.drop_memory();
        for w in workload.traces() {
            let guard = spans.begin("workloads.load");
            guard.attr("req", format!("load-{pass}-{}", w.name));
            let start = Instant::now();
            black_box(store.get(w, scale));
            load_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    vec![
        metric(
            "trace.stream_ns_per_event",
            seconds * 1e9 / events as f64,
            "ns/event",
        ),
        metric(
            "trace.stream_stall_frac",
            stalls as f64 / frames as f64,
            "fraction",
        ),
        metric(
            "trace.bytes_per_event",
            bytes as f64 / events as f64,
            "B/event",
        ),
        metric("workloads.load_ms", median(&load_ms), "ms"),
    ]
}

/// A seeded pick of `n` workloads from `from`.
fn pick(seed: u64, from: &[&'static WorkloadSpec], n: usize) -> Vec<&'static WorkloadSpec> {
    let mut picked = from.to_vec();
    Rng::new(seed).shuffle(&mut picked);
    picked.truncate(n);
    picked
}

/// The engine probe: the workload's own sweep path, untraced and traced
/// in alternation (`telemetry.tracing_overhead_frac`), with the engine's
/// utilization and idle time from the untraced runs and the share of job
/// time outside any child span from the traced ones.
fn engine_rows(
    workload: Workload,
    seed: u64,
    events: &HashMap<&'static str, u64>,
    spans: &Spans,
    home: usize,
) -> Vec<Metric> {
    let spec = match workload {
        Workload::MatrixWarm => SweepSpec {
            workloads: pick(seed, &ALL.iter().collect::<Vec<_>>(), 8),
            ..SweepSpec::full_matrix(workload.scale(), parallelism())
        },
        Workload::StreamHuge => batch::spec(workload, seed),
        Workload::ServeMixed => SweepSpec::full_matrix(workload.scale(), parallelism()),
    };
    let untraced = SweepSession::default();
    let traced = SweepSession {
        spans: spans.clone(),
        ..SweepSession::default()
    };
    // Warm-up: the first sweep pays the trace loads.
    black_box(untraced.run("perfbench", &spec, None));
    let (mut t_untraced, mut t_traced) = (0.0, 0.0);
    let (mut utilization, mut idle) = (Vec::new(), Vec::new());
    for pair in 0..3 {
        for traced_run in [pair % 2 == 1, pair % 2 == 0] {
            let start = Instant::now();
            if traced_run {
                let guard = spans.begin("engine.sweep");
                guard.attr("req", format!("sweep-{pair}"));
                black_box(traced.run("perfbench", &spec, None));
                drop(guard);
                t_traced += start.elapsed().as_secs_f64();
            } else {
                let run = untraced.run("perfbench", &spec, None).run;
                t_untraced += start.elapsed().as_secs_f64();
                utilization.push(run.utilization);
                idle.push(run.worker_stats.iter().map(|w| w.idle_seconds).sum::<f64>());
            }
        }
    }
    let per_run_events: u64 =
        spec.workloads.iter().map(|w| events[w.name]).sum::<u64>() * spec.kinds.len() as u64;
    println!(
        "engine probe: {} jobs, {per_run_events} events per sweep",
        spec.job_count()
    );
    let nodes = spans::tree(spans, home);
    let jobs: Vec<&spans::Node> = nodes.iter().filter(|n| n.name.contains('/')).collect();
    let job_us: u64 = jobs.iter().map(|n| n.end_us - n.start_us).sum();
    let job_self_us: u64 = jobs.iter().map(|n| n.self_us).sum();
    vec![
        metric(
            "harness.engine.utilization",
            median(&utilization),
            "fraction",
        ),
        metric("harness.engine.idle_s", median(&idle), "s"),
        metric(
            "harness.engine.job_self_frac",
            job_self_us as f64 / job_us.max(1) as f64,
            "fraction",
        ),
        metric(
            "telemetry.tracing_overhead_frac",
            1.0 - t_untraced / t_traced,
            "fraction",
        ),
    ]
}

/// `ResultStore::put` then `get` of every record the ladder simulated,
/// alternated over three passes, on a store of the benchmark's own.
fn store_rows(
    workload: Workload,
    records: &[(&'static WorkloadSpec, PrefetcherKind, RunRecord)],
    work: &Work,
    spans: &Spans,
    checks: &mut Checks,
) -> Vec<Metric> {
    let sys = SystemConfig::default();
    let store = ResultStore::at(work.dir("store-probe"));
    let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
    let mut intact = true;
    for pass in 0..3 {
        for (phase, samples) in [("put", &mut put_us), ("get", &mut get_us)] {
            let guard = spans.begin(&format!("result_store.{phase}"));
            guard.attr("req", format!("store-{pass}"));
            for (w, kind, record) in records {
                let key = ResultKey::new(w, workload.scale(), *kind, &sys);
                let start = Instant::now();
                if phase == "put" {
                    store.put(&key, record);
                } else {
                    intact &= store.get(&key).as_ref() == Some(record);
                }
                samples.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    checks.check(intact, "the result store returns every record it was given");
    vec![
        metric("harness.result_store.get_us", median(&get_us), "us"),
        metric("harness.result_store.put_us", median(&put_us), "us"),
    ]
}

/// The server probe: the same hit-only sweep over HTTP and through an
/// in-process `SweepSession::run` on the same store, alternated; the
/// difference is what the server layer adds. Serve-mixed also replays one
/// round of its sequence with a span around every request, for the hit
/// share and the rejected share under its closed-loop load.
fn server_rows(
    workload: Workload,
    seed: u64,
    work: &Work,
    spans: &Spans,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut spec = serve::spec_of(&pick(seed, &workload.traces(), 3), workload.scale());
    if workload == Workload::StreamHuge {
        spec.kinds = STREAM_KINDS.to_vec();
        spec.jobs = 1;
        spec.stream_threshold_bytes = Some(0);
    }
    let body = serve::body_of(&spec);
    let results = work.dir("probe-results");
    let server = ServerChild::spawn(&results);
    let (mut attempted, mut rejected) = (0u64, 0u64);
    let mut tally = |status: u16| {
        attempted += 1;
        rejected += u64::from(status == 429);
    };
    let warm = serve::post_sweep(server.addr, &body);
    let warm_ok = warm.as_ref().is_ok_and(|r| r.complete(spec.job_count()));
    checks.check(warm_ok, "server probe: the warm-up sweep completes");
    tally(warm.map_or(0, |r| r.status));
    let session = SweepSession {
        result_cache: ResultCache::At(Arc::new(ResultStore::at(&results))),
        ..SweepSession::default()
    };
    let mut overhead_ms = Vec::new();
    for pair in 0..10 {
        let mut http = None;
        let mut local = None;
        for over_http in [pair % 2 == 0, pair % 2 == 1] {
            let guard = spans.begin(if over_http {
                "server.http"
            } else {
                "service.run"
            });
            guard.attr("req", format!("probe-{pair}"));
            let start = Instant::now();
            if over_http {
                let response = serve::post_sweep(server.addr, &body);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                tally(response.as_ref().map_or(0, |r| r.status));
                http = response.ok().map(|r| (ms, r));
            } else {
                let run = session.run("perfbench", &spec, None).run;
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let lines: Vec<String> = run.records.iter().map(crate::util::record_line).collect();
                local = Some((ms, lines));
            }
        }
        match (http, local) {
            (Some((http_ms, r)), Some((local_ms, lines))) => {
                checks.check(
                    r.complete(spec.job_count()) && r.cached() == spec.job_count() as u64,
                    "server probe: every repeat is served from the store",
                );
                checks.check(
                    r.records == lines,
                    "server probe: HTTP records equal in-process",
                );
                overhead_ms.push(http_ms - local_ms);
            }
            _ => checks.check(false, "server probe: a request got no answer"),
        }
    }
    server.stop();
    let mut hit_frac = 0.0;
    if workload == Workload::ServeMixed {
        let sequence = serve::sequence(seed);
        let specs: Vec<SweepSpec> = sequence
            .iter()
            .map(|w| serve::spec_of(w, workload.scale()))
            .collect();
        let bodies: Vec<String> = specs.iter().map(serve::body_of).collect();
        let server = ServerChild::spawn(&work.dir("round-results"));
        let (responses, _) = serve::drive(server.addr, &bodies, spans);
        server.stop();
        let jobs: u64 = specs.iter().map(|s| s.job_count() as u64).sum();
        let misses = serve::expected_misses(&sequence);
        let hits = serve::check_round(&responses, &specs, jobs - misses, checks);
        hit_frac = hits as f64 / jobs as f64;
        for r in &responses {
            tally(r.as_ref().map_or(0, |r| r.status));
        }
    }
    vec![
        metric("harness.result_store.hit_frac", hit_frac, "fraction"),
        metric("server.overhead_ms", median(&overhead_ms), "ms"),
        metric(
            "server.rejected_frac",
            rejected as f64 / attempted as f64,
            "fraction",
        ),
    ]
}

/// The whole traced run; returns every per-layer metric.
pub fn run(workload: Workload, seed: u64, work: &Work, checks: &mut Checks) -> Vec<Metric> {
    let spans = Spans::enabled();
    let home = spans.lane("bench");
    spans.adopt_lane(home);
    let (generate_s, events) = {
        let guard = spans.begin("workloads.generate");
        guard.attr("req", "setup");
        crate::generate(workload, &work.traces)
    };
    let total: u64 = events.values().sum();
    let mut m = vec![metric(
        "workloads.generate_ns_per_event",
        generate_s * 1e9 / total as f64,
        "ns/event",
    )];
    // The ladder runs first and alone: no other thread allocates while a
    // row's allocations are counted.
    let store = TraceStore::at(&work.traces);
    let traces: Vec<_> = workload
        .traces()
        .into_iter()
        .map(|w| (w, store.get(w, workload.scale())))
        .collect();
    let (ladder_metrics, records) = ladder(workload, &traces, &spans);
    drop(traces);
    drop(store);
    m.extend(ladder_metrics);
    m.extend(trace_rows(workload, work, &spans, checks));
    m.extend(engine_rows(workload, seed, &events, &spans, home));
    m.extend(store_rows(workload, &records, work, &spans, checks));
    m.extend(server_rows(workload, seed, work, &spans, checks));

    let nodes = spans::tree(&spans, home);
    let path = work.root.join("spans.jsonl");
    checks.check(spans::write(&nodes, &path).is_ok(), "span dump is written");
    let mut self_us: HashMap<&str, (u64, u64)> = HashMap::new();
    for n in &nodes {
        let e = self_us
            .entry(n.name.split('/').next().unwrap_or(&n.name))
            .or_default();
        e.0 += n.end_us - n.start_us;
        e.1 += n.self_us;
    }
    let mut names: Vec<_> = self_us.into_iter().collect();
    names.sort_by_key(|(_, (_, s))| std::cmp::Reverse(*s));
    println!(
        "{} spans written to {}; top self times:",
        nodes.len(),
        path.display()
    );
    for (name, (total_us, self_us)) in names.iter().take(12) {
        println!(
            "  {name:<36} total {:>10.3} s  self {:>10.3} s",
            *total_us as f64 / 1e6,
            *self_us as f64 / 1e6
        );
    }
    m.sort_by(|a, b| a.name.cmp(&b.name));
    m
}
