//! One benchmark run: set-up, the timed phase, restarts, correctness
//! checks, and the metrics they yield.
//!
//! The load is a closed loop: each connection sends its next request
//! only after the previous response was read and parsed, as a CI job
//! blocks on the gate's verdict before its next push.

use crate::client::{request_bytes, Conn, Marks, Reply};
use crate::gen::{Inputs, Op, OpKind, Workload};
use crate::layers;
use crate::scrape::ScrapeDelta;
use crate::server::{self, ServerProc};
use crate::spans::Spans;
use crate::stats::{self, percentile};
use easeml_serve::json::Value;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Restarts after each repetition; `recovery_ms` is the median of all.
pub const RESTARTS_PER_REP: usize = 3;

/// Correctness problems listed in full before the rest are only counted.
const MAX_PROBLEMS: usize = 20;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `easeml-ci` binary under test.
    pub server: PathBuf,
    /// Directory for data directories, spans and reports.
    pub work_dir: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length; sets the number of repetitions.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metric constructor shorthand.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent to the server.
    pub attempted: u64,
    /// Requests that failed in transport or were answered other than
    /// 200/201.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// The end-to-end metrics (untraced run) or per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Settings and conditions of the run.
    pub environment: Value,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Request and check bookkeeping shared by every phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    unlisted: usize,
}

impl Tally {
    fn problem(&mut self, message: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        } else {
            self.unlisted += 1;
        }
    }

    /// Count one response: a transport error or a status other than
    /// 200/201 is a failed request.
    fn count(&mut self, what: &str, reply: &Result<Reply, String>) {
        self.attempted += 1;
        match reply {
            Ok(r) if r.ok() => {}
            Ok(r) => {
                self.failed += 1;
                self.problem(format!("{what}: status {} ({})", r.status, r.text()));
            }
            Err(e) => {
                self.failed += 1;
                self.problem(format!("{what}: {e}"));
            }
        }
    }
}

/// One connection's timed operations.
struct LaneOut {
    latency_ns: Vec<u64>,
    traced: Vec<bool>,
    replies: Vec<Result<Reply, String>>,
    parsed: Vec<Option<Value>>,
    spans: Spans,
}

/// Whether op `i` of `lane` is traced in the traced run: a seeded coin
/// per op, so traced and untraced ops interleave without lining up with
/// the store's every-64th-op snapshots.
fn traced_op(lane: usize, i: usize) -> bool {
    crate::gen::Rng::new(i as u64, 900 + lane as u64).next_u64() & 1 == 1
}

fn run_lane(
    conn: &mut Conn,
    lane: usize,
    ops: &[Op],
    trace: bool,
    epoch: Instant,
    barrier: &Barrier,
) -> LaneOut {
    let mut out = LaneOut {
        latency_ns: Vec::with_capacity(ops.len()),
        traced: Vec::with_capacity(ops.len()),
        replies: Vec::with_capacity(ops.len()),
        parsed: Vec::with_capacity(ops.len()),
        spans: Spans::new(epoch),
    };
    barrier.wait();
    for (i, op) in ops.iter().enumerate() {
        let traced = trace && traced_op(lane, i);
        let mut marks = Marks::default();
        let base_ns = if traced { out.spans.now() } else { 0 };
        let start = Instant::now();
        let reply = if traced {
            conn.roundtrip_marked(&op.request, Some((&start, &mut marks)))
        } else {
            conn.roundtrip(&op.request)
        };
        // The receipt is parsed inside the timed window: the client's
        // latency ends when it holds the verdict.
        let parsed = reply
            .as_ref()
            .ok()
            .filter(|r| r.ok())
            .and_then(|r| std::str::from_utf8(&r.body).ok())
            .and_then(|text| Value::parse(text).ok());
        let elapsed = start.elapsed().as_nanos() as u64;
        if traced {
            let request = ((lane as u64) << 32) | i as u64;
            let s = &mut out.spans;
            let root = s.record("client.request", base_ns, base_ns + elapsed, None, request);
            s.record(
                "client.send",
                base_ns,
                base_ns + marks.sent_ns,
                Some(root),
                request,
            );
            s.record(
                "client.wait",
                base_ns + marks.sent_ns,
                base_ns + marks.first_byte_ns,
                Some(root),
                request,
            );
            s.record(
                "client.recv",
                base_ns + marks.first_byte_ns,
                base_ns + marks.done_ns,
                Some(root),
                request,
            );
            s.record(
                "client.parse",
                base_ns + marks.done_ns,
                base_ns + elapsed,
                Some(root),
                request,
            );
        }
        out.latency_ns.push(elapsed);
        out.traced.push(traced);
        out.replies.push(reply.map_err(|e| e.to_string()));
        out.parsed.push(parsed);
    }
    out
}

/// Responses of the timed phase, lane by lane.
struct Timed {
    lanes: Vec<LaneOut>,
    wall: Duration,
}

fn timed_phase(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    trace: bool,
    epoch: Instant,
) -> io::Result<Timed> {
    let barrier = Barrier::new(inputs.lanes.len() + 1);
    let mut conns = inputs
        .lanes
        .iter()
        .map(|_| Conn::connect(addr))
        .collect::<io::Result<Vec<Conn>>>()?;
    let (lanes, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&inputs.lanes)
            .enumerate()
            .map(|(lane, (conn, ops))| {
                let barrier = &barrier;
                scope.spawn(move || run_lane(conn, lane, ops, trace, epoch, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let lanes: Vec<LaneOut> = handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect();
        (lanes, start.elapsed())
    });
    Ok(Timed { lanes, wall })
}

fn project_reads(inputs: &Inputs) -> Vec<(String, Vec<u8>)> {
    inputs
        .projects
        .iter()
        .flat_map(|p| {
            ["history", "budget"].map(|what| {
                let path = format!("/projects/{}/{what}", p.name);
                let request = request_bytes("GET", &path, None);
                (path, request)
            })
        })
        .collect()
}

/// Bodies of every project's `/history` and `/budget`.
fn read_state(
    addr: std::net::SocketAddr,
    reads: &[(String, Vec<u8>)],
    tally: &mut Tally,
) -> io::Result<Vec<Vec<u8>>> {
    let mut conn = Conn::connect(addr)?;
    Ok(reads
        .iter()
        .map(|(path, request)| {
            let reply = conn.roundtrip(request).map_err(|e| e.to_string());
            tally.count(path, &reply);
            reply.map(|r| r.body).unwrap_or_default()
        })
        .collect())
}

fn field_u64(value: &Value, path: &[&str]) -> Option<u64> {
    let mut v = value;
    for key in path {
        v = v.get(key)?;
    }
    v.as_u64()
}

/// Check every timed answer against what the benchmark itself expects.
fn check_timed(inputs: &Inputs, timed: &Timed, tally: &mut Tally) {
    let mut pool = inputs.old.as_ref().map(|old| LabelPool::new(old.len()));
    for (lane, out) in timed.lanes.iter().enumerate() {
        for (i, op) in inputs.lanes[lane].iter().enumerate() {
            let what = format!("lane {lane} op {i}");
            tally.count(&what, &out.replies[i]);
            let Some(parsed) = &out.parsed[i] else {
                if out.replies[i].as_ref().is_ok_and(Reply::ok) {
                    tally.problem(format!("{what}: unparsable answer"));
                }
                continue;
            };
            let check = match &op.kind {
                OpKind::Counts(submission) => check_counts(parsed, submission, i),
                OpKind::Predictions { new, .. } => {
                    let old = inputs.old.as_ref().expect("predictions inputs carry old");
                    let truth = &inputs.projects[0]
                        .testset
                        .as_ref()
                        .expect("predictions project has a testset")
                        .truth;
                    let expected = pool
                        .as_mut()
                        .expect("predictions run tracks labels")
                        .measure(truth, old, new);
                    check_measurement(parsed, &expected)
                }
            };
            if let Err(message) = check {
                tally.problem(format!("{what}: {message}"));
            }
        }
    }
}

fn check_counts(
    parsed: &Value,
    submission: &easeml_serve::CommitSubmission,
    i: usize,
) -> Result<(), String> {
    let id = parsed.get("commit_id").and_then(Value::as_str);
    if id != Some(submission.commit_id.as_str()) {
        return Err(format!("receipt for {id:?}, sent {}", submission.commit_id));
    }
    if field_u64(parsed, &["step"]) != Some(i as u64 + 1) {
        return Err(format!("step {:?}, expected {}", parsed.get("step"), i + 1));
    }
    if field_u64(parsed, &["labels"]) != Some(submission.counts.labels) {
        return Err("receipt labels differ from the submitted labels".into());
    }
    Ok(())
}

/// What the server must report for one predictions commit, computed by
/// the benchmark from its own vectors.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    samples: u64,
    new_correct: u64,
    old_correct: u64,
    changed: u64,
    labels_spent: u64,
    labeled_total: u64,
}

/// The benchmark's own model of the lazily labelled pool under a
/// disagreements-only label demand: a commit labels the items where
/// `new` and `old` differ; unlabelled items credit both models.
struct LabelPool {
    known: Vec<bool>,
    labeled: u64,
}

impl LabelPool {
    fn new(items: usize) -> LabelPool {
        LabelPool {
            known: vec![false; items],
            labeled: 0,
        }
    }

    fn measure(&mut self, truth: &[u32], old: &[u32], new: &[u32]) -> Expected {
        let mut changed = 0;
        let mut fresh = 0;
        for i in 0..truth.len() {
            if old[i] != new[i] {
                changed += 1;
                if !self.known[i] {
                    self.known[i] = true;
                    fresh += 1;
                }
            }
        }
        self.labeled += fresh;
        let (mut new_correct, mut old_correct) = (0, 0);
        for i in 0..truth.len() {
            let known = self.known[i];
            new_correct += u64::from(!known || new[i] == truth[i]);
            old_correct += u64::from(!known || old[i] == truth[i]);
        }
        Expected {
            samples: truth.len() as u64,
            new_correct,
            old_correct,
            changed,
            labels_spent: fresh,
            labeled_total: self.labeled,
        }
    }
}

fn check_measurement(parsed: &Value, expected: &Expected) -> Result<(), String> {
    let m = |key: &str| field_u64(parsed, &["measurement", key]);
    let got = Expected {
        samples: m("samples").unwrap_or(u64::MAX),
        new_correct: m("new_correct").unwrap_or(u64::MAX),
        old_correct: m("old_correct").unwrap_or(u64::MAX),
        changed: m("changed").unwrap_or(u64::MAX),
        labels_spent: m("labels_spent").unwrap_or(u64::MAX),
        labeled_total: m("labeled_total").unwrap_or(u64::MAX),
    };
    if &got != expected {
        return Err(format!("measurement {got:?}, expected {expected:?}"));
    }
    if field_u64(parsed, &["labels"]) != Some(expected.labels_spent) {
        return Err("receipt labels differ from the measured label spend".into());
    }
    Ok(())
}

/// Set up once: generate inputs, start a server on a fresh data
/// directory, and register the projects.
fn set_up(
    cfg: &Config,
    data_dir: &Path,
    tally: &mut Tally,
) -> io::Result<(Inputs, ServerProc, Duration)> {
    let start = Instant::now();
    let inputs = Inputs::generate(cfg.workload, cfg.seed);
    let server = ServerProc::spawn(&cfg.server, data_dir)?;
    let mut conn = Conn::connect(server.addr)?;
    for p in &inputs.projects {
        let what = format!("register {}", p.name);
        let reply = conn.roundtrip(&p.request).map_err(|e| e.to_string());
        tally.count(&what, &reply);
        let answer = reply.ok().filter(Reply::ok).map(|r| r.text());
        // A predictions project's testset must cover the script's
        // estimated sample size.
        if p.testset.is_some()
            && !answer.as_ref().is_some_and(|text| {
                Value::parse(text).ok().and_then(|v| {
                    v.get("testset")
                        .and_then(|t| t.get("meets_estimate"))
                        .and_then(Value::as_bool)
                }) == Some(true)
            })
        {
            tally.problem(format!(
                "{what}: testset smaller than the estimate ({answer:?})"
            ));
        }
    }
    Ok((inputs, server, start.elapsed()))
}

fn latencies(timed: &Timed, traced: bool) -> Vec<f64> {
    timed
        .lanes
        .iter()
        .flat_map(|l| {
            l.latency_ns
                .iter()
                .zip(&l.traced)
                .filter(move |(_, t)| **t == traced)
                .map(|(ns, _)| *ns as f64 / 1e3)
        })
        .collect()
}

/// Run one invocation.
///
/// # Errors
///
/// Failures to start or reach the server, and file-system errors in the
/// work directory. Failed requests and checks are not errors: they are
/// reported in the [`Outcome`].
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    let run_dir = cfg.work_dir.join(format!(
        "{}-s{}-t{}-p{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        std::process::id()
    ));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)?;
    }
    std::fs::create_dir_all(&run_dir)?;
    let result = run_in(cfg, &run_dir);
    // Data directories are large; only the spans and reports stay.
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// Numbers of one repetition of set-up and timed phase.
struct Rep {
    setup_s: f64,
    /// Client latency of the untraced ops, µs.
    untraced: Vec<f64>,
    /// Median client latency of the traced ops, µs (traced run only).
    traced_p50_us: f64,
    ops_per_s: f64,
    labels: u64,
    write_bytes: f64,
    peak_rss_mb: f64,
    /// Per-layer numbers from the server's `/metrics` (traced run only).
    layers: Vec<Metric>,
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<f64>>())
}

fn run_in(cfg: &Config, run_dir: &Path) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut report = Vec::new();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);

    // Repetitions on fresh servers over the same inputs, started at even
    // intervals over the run's `seconds`, so the samples cover the whole
    // run however fast each repetition finishes and a passing slow spell
    // of a shared machine cannot decide a metric. The last repetition's
    // data directory stays for the traced run's layers.
    let repetitions = cfg.workload.repetitions(cfg.seconds);
    let interval = Duration::from_secs(cfg.seconds) / repetitions as u32;
    let mut reps: Vec<Rep> = Vec::with_capacity(repetitions);
    let mut kept = None;
    let mut recovery_ms = Vec::with_capacity(repetitions * RESTARTS_PER_REP);
    for k in 0..repetitions {
        if let Some(wait) = (epoch + interval * k as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let data_dir = run_dir.join(format!("data-{k}"));
        let (inputs, server, took) = set_up(cfg, &data_dir, &mut tally)?;
        let before = server.scrape()?;
        let timed = timed_phase(server.addr, &inputs, cfg.trace, epoch)?;
        let delta = ScrapeDelta::new(before, server.scrape()?);
        let peak_rss_mb = server.peak_rss_mb()?;
        check_timed(&inputs, &timed, &mut tally);
        let ops = inputs.timed_ops() as f64;
        let traced = latencies(&timed, true);
        reps.push(Rep {
            setup_s: took.as_secs_f64(),
            untraced: latencies(&timed, false),
            traced_p50_us: if traced.is_empty() {
                0.0
            } else {
                stats::median(&traced)
            },
            ops_per_s: ops / timed.wall.as_secs_f64(),
            labels: timed
                .lanes
                .iter()
                .flat_map(|l| &l.parsed)
                .filter_map(|p| p.as_ref().and_then(|v| field_u64(v, &["labels"])))
                .sum(),
            write_bytes: delta.counter("easeml_vfs_write_bytes_total", &[]),
            peak_rss_mb,
            layers: if cfg.trace {
                server_layers(&delta, ops)
            } else {
                Vec::new()
            },
        });
        // Restarts, spread over the run with the repetitions: the
        // recovered state must read back byte-identically.
        let reads = project_reads(&inputs);
        let baseline = read_state(server.addr, &reads, &mut tally)?;
        server.kill()?;
        for r in 0..RESTARTS_PER_REP {
            let (server, took) = ServerProc::spawn_ready(&cfg.server, &data_dir)?;
            tally.attempted += 1;
            recovery_ms.push(took.as_secs_f64() * 1e3);
            let state = read_state(server.addr, &reads, &mut tally)?;
            server.kill()?;
            for (i, (body, before)) in state.iter().zip(&baseline).enumerate() {
                if body != before {
                    tally.problem(format!(
                        "repetition {k} restart {r}: {} differs after recovery",
                        reads[i].0
                    ));
                }
            }
        }
        // Data directories stay until the run ends: freeing their pages
        // between repetitions would make the next ones allocate afresh.
        if k + 1 == repetitions {
            kept = Some((inputs, data_dir, timed));
        }
    }
    let (inputs, data_dir, mut timed) = kept.expect("at least one repetition");
    // The client spans of the last repetition are the ones kept.
    for lane in &mut timed.lanes {
        spans.merge(std::mem::replace(&mut lane.spans, Spans::new(epoch)));
    }
    let fstype = server::filesystem_of(&data_dir);
    let ops = inputs.timed_ops();

    // Same inputs, same counts: anything else is nondeterminism.
    for rep in &reps[1..] {
        if rep.labels != reps[0].labels || rep.write_bytes != reps[0].write_bytes {
            tally.problem(format!(
                "counted metrics differ between repetitions: labels {} vs {}, bytes {} vs {}",
                rep.labels, reps[0].labels, rep.write_bytes, reps[0].write_bytes
            ));
        }
    }
    report.push(format!(
        "recovery_ms per restart: {}",
        recovery_ms
            .iter()
            .map(|ms| format!("{ms:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let labels_per_commit = reps[0].labels as f64 / ops as f64;
    let metrics = if cfg.trace {
        let mut metrics: Vec<Metric> = reps[0]
            .layers
            .iter()
            .enumerate()
            .map(|(i, m)| metric(&m.name, median_of(&reps, |r| r.layers[i].value), m.unit))
            .collect();
        let client = spans.self_times();
        for (name, key) in [
            ("client.send_us", "client.send"),
            ("client.wait_us", "client.wait"),
            ("client.recv_us", "client.recv"),
            ("client.parse_us", "client.parse"),
        ] {
            let v = client.get(key).map_or(0.0, |t| t.mean_self_us());
            metrics.push(metric(name, v, "us"));
        }
        let p50 = median_of(&reps, |r| stats::median(&r.untraced));
        let overhead = median_of(&reps, |r| r.traced_p50_us - stats::median(&r.untraced));
        metrics.push(metric("trace.overhead_us", overhead, "us"));
        let stage = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == format!("stage.{name}_p50_us"))
                .map_or(0.0, |m| m.value)
        };
        let staged: f64 = ["parse", "queue", "handler", "response_write"]
            .iter()
            .map(|s| stage(s))
            .sum();
        metrics.push(metric("unattributed_us", p50 - staged, "us"));
        report.push(format!(
            "add-up: commit p50 {p50:.1} us (untraced commits) = stages parse+queue+handler+\
             response_write {staged:.1} us + unattributed {:.1} us",
            p50 - staged
        ));
        let receipts: Vec<&Value> = timed
            .lanes
            .iter()
            .flat_map(|l| l.parsed.iter().flatten())
            .collect();
        metrics.extend(layers::measure(
            cfg,
            &inputs,
            &receipts,
            labels_per_commit,
            &data_dir,
            run_dir,
            &mut spans,
            &mut report,
            &mut tally.problems,
        )?);
        let spans_path =
            cfg.work_dir
                .join(format!("spans-{}-s{}.jsonl", cfg.workload.name(), cfg.seed));
        spans.write_jsonl(&spans_path)?;
        report.push(format!(
            "spans: {} written to {}",
            spans.spans().len(),
            spans_path.display()
        ));
        metrics
    } else {
        let mut p50s = Vec::with_capacity(repetitions);
        let mut p99s = Vec::with_capacity(repetitions);
        for rep in &reps {
            p50s.push(
                percentile(&rep.untraced, 50.0)
                    .map_err(io::Error::other)?
                    .value,
            );
            let p99 = percentile(&rep.untraced, 99.0).map_err(io::Error::other)?;
            if p99s.is_empty() {
                report.push(format!(
                    "p99 of each repetition: {} samples, {} beyond it",
                    p99.samples, p99.beyond
                ));
            }
            p99s.push(p99.value);
        }
        for (what, values) in [("p50", &p50s), ("p99", &p99s)] {
            report.push(format!(
                "commit {what} per repetition (us): {}",
                values
                    .iter()
                    .map(|v| format!("{v:.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        report.push(format!(
            "commits/s per repetition: {}",
            reps.iter()
                .map(|r| format!("{:.0}", r.ops_per_s))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        vec![
            metric("commit_p50_us", stats::median(&p50s), "us"),
            metric("commit_p99_us", stats::median(&p99s), "us"),
            metric("commits_per_s", median_of(&reps, |r| r.ops_per_s), "1/s"),
            metric("labels_per_commit", labels_per_commit, "labels"),
            metric(
                "disk_bytes_per_op",
                reps[0].write_bytes / ops as f64,
                "bytes",
            ),
            metric("recovery_ms", stats::median(&recovery_ms), "ms"),
            metric("peak_rss_mb", median_of(&reps, |r| r.peak_rss_mb), "MB"),
            metric("setup_s", median_of(&reps, |r| r.setup_s), "s"),
        ]
    };

    report.push(format!(
        "{repetitions} repetitions of set-up + {ops} timed commits on {} connection(s), \
         each followed by {RESTARTS_PER_REP} restarts",
        inputs.lanes.len(),
    ));
    let environment = Value::object([
        ("workload", Value::from(cfg.workload.name())),
        ("seed", Value::from(cfg.seed)),
        ("seconds", Value::from(cfg.seconds)),
        ("trace", Value::from(cfg.trace)),
        ("durability", Value::from(server::DURABILITY)),
        ("data_dir_fs", Value::from(fstype.as_str())),
        (
            "data_dir_ram_backed",
            Value::from(server::ram_backed(&fstype)),
        ),
        ("flushes_elided", Value::from(server::flushes_elided())),
        (
            "cpus",
            Value::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("connections", Value::from(inputs.lanes.len())),
        ("timed_ops", Value::from(ops)),
        ("repetitions", Value::from(repetitions)),
        ("restarts", Value::from(recovery_ms.len())),
        ("loop", Value::from("closed")),
    ]);
    let mut problems = tally.problems;
    if tally.unlisted > 0 {
        problems.push(format!("… and {} more problems", tally.unlisted));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics,
        environment,
        report,
    })
}

/// Server stages whose p50 is reported. `fsync` is left out because the
/// preloaded shim makes every flush return at once (its count is
/// `journal.fsyncs_per_commit`), and `measure` because it never runs on
/// `gate_counts` (the in-process `registry.measure_us` times that layer).
const REPORTED_STAGES: [&str; 7] = [
    "parse",
    "queue",
    "gate",
    "journal_append",
    "snapshot",
    "handler",
    "response_write",
];

/// Per-layer numbers read off the server's own `/metrics` over the
/// timed phase.
fn server_layers(delta: &ScrapeDelta, ops: f64) -> Vec<Metric> {
    const STAGE: &str = "easeml_request_stage_seconds";
    let mut out: Vec<Metric> = REPORTED_STAGES
        .iter()
        .map(|name| {
            metric(
                &format!("stage.{name}_p50_us"),
                delta.time_quantile_us(STAGE, &[("stage", name)], 0.5),
                "us",
            )
        })
        .collect();
    let inline = delta.counter("easeml_dispatch_inline_total", &[]);
    let pooled = delta.counter("easeml_dispatch_pool_total", &[]);
    let dispatched = inline + pooled;
    out.extend([
        metric(
            "group.batch_size_mean",
            delta.histogram_mean("easeml_group_commit_batch_size", &[]),
            "ops",
        ),
        metric(
            "group.flush_p50_us",
            delta.time_quantile_us("easeml_group_commit_flush_seconds", &[], 0.5),
            "us",
        ),
        metric(
            "journal.fsyncs_per_commit",
            delta.counter("easeml_journal_fsyncs_total", &[]) / ops,
            "count",
        ),
        metric(
            "journal.bytes_per_commit",
            delta.counter("easeml_journal_bytes_total", &[]) / ops,
            "bytes",
        ),
        metric(
            "snapshot.writes_per_commit",
            delta.counter("easeml_snapshot_writes_total", &[]) / ops,
            "count",
        ),
        metric(
            "dispatch.inline_frac",
            if dispatched > 0.0 {
                inline / dispatched
            } else {
                0.0
            },
            "fraction",
        ),
    ]);
    out
}
