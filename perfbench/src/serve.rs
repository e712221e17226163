//! The `serve-mixed` workload: a sweep server in a child process, driven
//! closed-loop over HTTP with a seeded sequence of overlapping sweeps.

use crate::batch::check_records;
use crate::util::{self, Checks, Phase, Rng, MIN_LATENCY_SAMPLES, PHASE_CAP_S};
use crate::{parallelism, Setup, Work};
use cbws_harness::result_store::{self, ResultStore};
use cbws_harness::{PrefetcherKind, ResultCache, SweepSession, SweepSpec};
use cbws_server::{Server, ServerConfig};
use cbws_telemetry::{Spans, Telemetry};
use cbws_workloads::{Scale, WorkloadSpec, ALL};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// First argument that turns the benchmark binary into a sweep server.
pub const CHILD_FLAG: &str = "--serve-child";

/// Most workloads one request sweeps; every request sweeps them under all
/// seven prefetchers, so a full request streams 35 records.
const REQUEST_WORKLOADS: usize = 5;
/// Requests at the end of a round that only repeat earlier work.
const REPEAT_REQUESTS: usize = 10;

/// The sweep server process: the same configuration as the `sweep_server`
/// binary (metrics and spans on, the shared result store), bound to an
/// ephemeral port. Serves until its standard input closes, then prints
/// its peak resident memory.
pub fn child_main(args: &[String]) {
    cbws_telemetry::log::set_level(cbws_telemetry::log::Verbosity::Quiet);
    let jobs = args
        .first()
        .and_then(|j| j.parse().ok())
        .expect("server child takes its engine worker count");
    let server = Server::spawn(ServerConfig {
        jobs,
        telemetry: Telemetry::enabled_default(),
        spans: Spans::enabled(),
        result_cache: ResultCache::Shared,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port on 127.0.0.1");
    println!("listening on {}", server.addr());
    std::io::stdout().flush().expect("parent reads our stdout");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    println!("peak_rss_mb {}", util::peak_rss_mb());
}

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts a server whose result store lives at `results` (created
    /// empty) and waits until it listens.
    pub fn spawn(results: &Path) -> ServerChild {
        let _ = std::fs::remove_dir_all(results);
        let mut child = Command::new(std::env::current_exe().expect("own executable path"))
            .arg(CHILD_FLAG)
            .arg(parallelism().to_string())
            .env(result_store::DIR_ENV, results)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the sweep server child");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("server child said `{line}`"));
        ServerChild {
            child,
            stdout,
            addr,
        }
    }

    /// Closes the server's input, waits for it to exit, and returns its
    /// peak resident memory in MiB.
    pub fn stop(mut self) -> f64 {
        drop(self.child.stdin.take());
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line);
        let status = self.child.wait().expect("wait for the server child");
        assert!(status.success(), "server child exited with {status}");
        line.trim()
            .strip_prefix("peak_rss_mb ")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("server child said `{line}`"))
    }
}

impl Drop for ServerChild {
    /// A server left behind by a panic still sees its input close and
    /// exits; wait for it so no process outlives the benchmark.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// One HTTP response to `POST /v1/sweep`.
pub struct Response {
    pub status: u16,
    /// Record lines, in the order streamed.
    pub records: Vec<String>,
    /// The parsed summary line, when the stream ended with one.
    pub summary: Option<Value>,
    pub latency_ms: f64,
}

impl Response {
    fn summary_u64(&self, key: &str) -> Option<u64> {
        self.summary.as_ref()?.get("summary")?.get(key)?.as_u64()
    }

    fn summary_flag(&self, key: &str) -> Option<bool> {
        match self.summary.as_ref()?.get("summary")?.get(key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Jobs served from the result store.
    pub fn cached(&self) -> u64 {
        self.summary_u64("cached").unwrap_or(0)
    }

    /// A 200 whose stream holds one record per job and a summary saying
    /// the sweep ran to completion.
    pub fn complete(&self, jobs: usize) -> bool {
        self.status == 200
            && self.records.len() == jobs
            && self.summary_u64("records") == Some(jobs as u64)
            && self.summary_flag("cancelled") == Some(false)
            && self.summary_flag("timed_out") == Some(false)
    }
}

/// Sends one sweep request and reads the whole streamed response.
pub fn post_sweep(addr: SocketAddr, body: &str) -> std::io::Result<Response> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    // A hung request fails the run instead of outliving its time limit.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let mut records = Vec::new();
    let mut summary = None;
    for line in body.lines() {
        if line.starts_with("{\"summary\"") {
            summary = serde_json::from_str::<Value>(line).ok();
        } else if !line.is_empty() {
            records.push(line.to_string());
        }
    }
    Ok(Response {
        status,
        records,
        summary,
        latency_ms,
    })
}

/// The seeded request sequence of one round. Request `i` of the first 30
/// brings the `i`-th workload of a seeded order, not asked for before,
/// and repeats up to four seen ones; the last 10 requests only repeat.
/// Every workload is new exactly once per round, in a request of the same
/// shape, so each round simulates the same 210 jobs, serves the other
/// 1120 from the store, and has the same mix of request costs whatever
/// the seed.
pub fn sequence(seed: u64) -> Vec<Vec<&'static WorkloadSpec>> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<&'static WorkloadSpec> = ALL.iter().collect();
    rng.shuffle(&mut order);
    let mut pick_seen = |seen: usize, n: usize| {
        let mut pool: Vec<&'static WorkloadSpec> = order[..seen].to_vec();
        rng.shuffle(&mut pool);
        pool.truncate(n);
        pool
    };
    let mut out = Vec::new();
    for (seen, &new) in order.iter().enumerate() {
        let mut request = pick_seen(seen, REQUEST_WORKLOADS - 1);
        request.push(new);
        out.push(request);
    }
    for _ in 0..REPEAT_REQUESTS {
        out.push(pick_seen(order.len(), REQUEST_WORKLOADS));
    }
    out
}

/// The in-process spec of one request.
pub fn spec_of(workloads: &[&'static WorkloadSpec], scale: Scale) -> SweepSpec {
    SweepSpec {
        workloads: workloads.to_vec(),
        kinds: PrefetcherKind::ALL.to_vec(),
        scale,
        jobs: parallelism(),
        system: Default::default(),
        stream_threshold_bytes: None,
    }
}

/// The JSON body of one request.
pub fn body_of(spec: &SweepSpec) -> String {
    let names: Vec<String> = spec
        .workloads
        .iter()
        .map(|w| format!("\"{}\"", w.name))
        .collect();
    let kinds: Vec<String> = spec
        .kinds
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    let stream = spec.stream_threshold_bytes.map_or(String::new(), |b| {
        format!(", \"stream_threshold_bytes\": {b}")
    });
    format!(
        "{{\"workloads\": [{}], \"prefetchers\": [{}], \"scale\": \"{}\", \"jobs\": {}{stream}}}",
        names.join(", "),
        kinds.join(", "),
        spec.scale,
        spec.jobs
    )
}

/// Sends every body over `parallelism()` closed-loop connections (each
/// sends its next request once the previous answer is in) and returns the
/// responses in sequence order with the wall time. Every request gets an
/// `http.request` span on its connection's lane (a no-op when `spans` is
/// disabled).
pub fn drive(addr: SocketAddr, bodies: &[String], spans: &Spans) -> (Vec<Option<Response>>, f64) {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Response>>> = Mutex::new((0..bodies.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|s| {
        for connection in 0..parallelism() {
            let (next, slots) = (&next, &slots);
            s.spawn(move || {
                spans.adopt_lane(spans.lane(&format!("client-{connection}")));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let guard = spans.begin("http.request");
                    guard.attr("req", format!("request-{i}"));
                    let response = post_sweep(addr, &bodies[i]).ok();
                    drop(guard);
                    slots.lock().expect("response slots lock")[i] = response;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (slots.into_inner().expect("response slots lock"), wall)
}

/// Distinct (workload, prefetcher) jobs of a sequence: the misses a
/// round on an empty store must simulate.
pub fn expected_misses(sequence: &[Vec<&'static WorkloadSpec>]) -> u64 {
    let mut seen: Vec<&str> = sequence.iter().flatten().map(|w| w.name).collect();
    seen.sort_unstable();
    seen.dedup();
    (seen.len() * PrefetcherKind::ALL.len()) as u64
}

/// Checks one round's responses: every request answered 200 in full, and
/// the store served exactly the sequence's repeats. Returns the hits.
pub fn check_round(
    responses: &[Option<Response>],
    specs: &[SweepSpec],
    expected_hits: u64,
    checks: &mut Checks,
) -> u64 {
    checks.attempted += responses.len() as u64;
    let mut hits = 0;
    for (i, (response, spec)) in responses.iter().zip(specs).enumerate() {
        match response {
            Some(r) if r.complete(spec.job_count()) => hits += r.cached(),
            Some(r) => {
                checks.failed += 1;
                eprintln!("perfbench: request {i} answered {} incompletely", r.status);
            }
            None => {
                checks.failed += 1;
                eprintln!("perfbench: request {i} got no answer");
            }
        }
    }
    checks.check(
        hits == expected_hits,
        &format!("store hits {hits}, the sequence repeats {expected_hits} jobs"),
    );
    hits
}

/// Measures whole rounds — each on a fresh server and empty result store
/// — for at least `seconds` and until the latency percentiles have their
/// samples.
pub fn measure(seed: u64, seconds: f64, setup: &Setup, work: &Work, checks: &mut Checks) -> Phase {
    let sequence = sequence(seed);
    let specs: Vec<SweepSpec> = sequence.iter().map(|w| spec_of(w, Scale::Small)).collect();
    let bodies: Vec<String> = specs.iter().map(body_of).collect();
    let jobs: u64 = specs.iter().map(|s| s.job_count() as u64).sum();
    let misses = expected_misses(&sequence);
    let miss_events = setup.total_events() * PrefetcherKind::ALL.len() as u64;
    let mut phase = Phase::default();
    let mut first: Option<Vec<Vec<String>>> = None;
    let mut server_peaks = Vec::new();
    // Round 0 warms the host (page cache, write-back of the set-up's trace
    // files) and is checked but not measured.
    let mut rounds = 0;
    while rounds == 0 || phase.wall_s < seconds || phase.latencies_ms.len() < MIN_LATENCY_SAMPLES {
        let results = work.dir(&format!("results-{rounds}"));
        let server = ServerChild::spawn(&results);
        let (responses, wall) = drive(server.addr, &bodies, &Spans::disabled());
        let peak = server.stop();
        let hits = check_round(&responses, &specs, jobs - misses, checks);
        if rounds > 0 {
            server_peaks.push(peak);
            phase.wall_s += wall;
            // Every distinct job is simulated once a round; all 30
            // workloads are new once, so that is the whole small matrix.
            phase.events += if jobs - hits == misses {
                miss_events
            } else {
                0
            };
            let ok = responses.iter().flatten().filter(|r| r.status == 200);
            for r in ok {
                phase.requests += 1;
                phase.latencies_ms.push(r.latency_ms);
            }
        }
        eprintln!("perfbench: round {rounds} took {wall:.3} s");
        rounds += 1;
        let lines: Vec<Vec<String>> = responses
            .into_iter()
            .map(|r| r.map(|r| r.records).unwrap_or_default())
            .collect();
        match &first {
            None => first = Some(lines),
            Some(first) => {
                checks.check(
                    &lines == first,
                    "every round streams the first round's records",
                );
                let _ = std::fs::remove_dir_all(&results);
            }
        }
        if phase.wall_s > PHASE_CAP_S {
            break;
        }
    }
    println!(
        "serve-mixed: {rounds} rounds (one warm-up) of {} requests ({jobs} jobs, {misses} misses each)",
        specs.len()
    );
    // Each round's server is a fresh process; the median of their peaks
    // does not hinge on one process's allocator arenas.
    phase.peak_rss_mb = util::median(&server_peaks);
    let first = first.expect("at least one round ran");
    verify(&specs, &first, &work.dir("results-0"), checks);
    phase
}

/// Checks the first round's streamed records byte for byte: against an
/// in-process `SweepSession::run` of the same spec on the same store, and
/// against a fresh in-process simulation of the whole small matrix.
fn verify(specs: &[SweepSpec], http: &[Vec<String>], store_dir: &Path, checks: &mut Checks) {
    let session = SweepSession {
        result_cache: ResultCache::At(Arc::new(ResultStore::at(store_dir))),
        ..SweepSession::default()
    };
    for (i, (spec, lines)) in specs.iter().zip(http).enumerate() {
        let run = session.run("perfbench", spec, None).run;
        let local: Vec<String> = run.records.iter().map(util::record_line).collect();
        checks.check(
            &local == lines,
            &format!("request {i}: HTTP records equal in-process SweepSession::run"),
        );
    }
    let matrix = SweepSpec::full_matrix(Scale::Small, parallelism());
    let fresh = SweepSession::default().run("perfbench", &matrix, None).run;
    let digest = check_records(&fresh.records, &matrix, checks);
    let kinds = PrefetcherKind::ALL.len();
    let line_of = |w: &WorkloadSpec, k: usize| {
        let wi = ALL
            .iter()
            .position(|x| x.name == w.name)
            .expect("request workloads are registered");
        util::record_line(&fresh.records[wi * kinds + k])
    };
    let same = specs.iter().zip(http).all(|(spec, lines)| {
        lines.len() == spec.job_count()
            && lines
                .iter()
                .enumerate()
                .all(|(j, l)| *l == line_of(spec.workloads[j / kinds], j % kinds))
    });
    checks.check(same, "stored records equal a fresh simulation");
    println!("serve-mixed: small-matrix records digest {digest:016x}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_new_once_and_repeats_do_not() {
        for seed in [1, 2, 99] {
            let seq = sequence(seed);
            assert_eq!(seq.len(), ALL.len() + REPEAT_REQUESTS);
            assert_eq!(expected_misses(&seq), 210);
            let mut seen: Vec<&str> = Vec::new();
            for request in &seq {
                let mut names: Vec<&str> = request.iter().map(|w| w.name).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), request.len(), "no workload twice in a request");
                let new = names.iter().filter(|n| !seen.contains(n)).count();
                assert!(new <= 1);
                seen.extend(names);
                seen.sort_unstable();
                seen.dedup();
            }
            assert_eq!(seen.len(), ALL.len());
        }
        let names = |seed| -> Vec<Vec<&str>> {
            sequence(seed)
                .iter()
                .map(|r| r.iter().map(|w| w.name).collect())
                .collect()
        };
        assert_ne!(names(1), names(2));
        assert_eq!(names(5), names(5));
    }

    #[test]
    fn request_body_names_the_spec() {
        let spec = spec_of(&ALL[..2].iter().collect::<Vec<_>>(), Scale::Small);
        let body: Value = serde_json::from_str(&body_of(&spec)).unwrap();
        assert_eq!(body.get("scale").and_then(Value::as_str), Some("small"));
        assert_eq!(
            body.get("workloads")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            body.get("prefetchers")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(7)
        );
    }
}
