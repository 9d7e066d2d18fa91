//! Per-layer timings taken in-process, from the benchmark's own code,
//! around calls into each layer's public functions.
//!
//! Each layer is timed on the run's own inputs where the workload
//! exercises it. A layer the workload bypasses is timed on a small probe
//! of the same seed (the first operations of the workload that does
//! exercise it), so every traced run reports every layer and a change to
//! a bypassed layer shows up as "no change" on the end-to-end numbers.

use crate::client::body_offset;
use crate::gen::{registration_probe, Inputs, Op, OpKind, Workload};
use crate::run::{metric, Config, Metric};
use crate::spans::Spans;
use crate::stats;
use easeml_ci_core::{BoundsCache, CacheStats, CiScript, PlanCache};
use easeml_serve::http::RequestParser;
use easeml_serve::json::{decode_u32_vec, encode_u32_vec, Value};
use easeml_serve::registry::serving_estimator;
use easeml_serve::vfs::RealVfs;
use easeml_serve::{
    Durability, MeasuredTestset, PredictionsSubmission, Project, Registry, TestsetSpec,
};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Store opens per traced run; `store.open_ms` is their median.
const OPENS: usize = 3;
/// Snapshots per traced run; `store.snapshot_us` is their median.
const SNAPSHOTS: usize = 5;
/// Operations of a probe for a bypassed commit layer.
const PROBE_COUNTS: usize = 256;
const PROBE_PREDICTIONS: usize = 32;

fn serve_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn clear_caches() {
    BoundsCache::global().clear();
    PlanCache::global().clear();
}

fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let total = hits + after.misses - before.misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A registry over `dir` as the server opens it.
fn open(dir: &Path) -> io::Result<Registry> {
    Registry::open_with_durability(
        dir,
        serving_estimator(),
        Arc::new(RealVfs),
        Durability::Group,
        None,
    )
    .map_err(serve_err)
}

/// Median time to open `dir` with cold caches, over [`OPENS`] opens;
/// returns it with the last registry opened.
fn open_ms(dir: &Path, spans: &mut Spans) -> io::Result<(f64, Registry)> {
    let mut times = Vec::with_capacity(OPENS);
    let mut last = None;
    for _ in 0..OPENS {
        clear_caches();
        let (registry, ns) = spans.time("store.open", 0, || open(dir));
        times.push(ns as f64 / 1e6);
        last = Some(registry?);
    }
    Ok((stats::median(&times), last.expect("at least one open")))
}

fn mean_us(spans: &Spans, name: &str) -> f64 {
    spans
        .self_times()
        .get(name)
        .map_or(0.0, |t| t.mean_self_us())
}

/// Time every layer for the traced run of `cfg`.
///
/// `data_dir` is the run's (stopped) server data directory; the layers'
/// own stores go under `run_dir`. Disagreements between layers and the
/// server are pushed to `problems`.
///
/// # Errors
///
/// Store failures in the run directory.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    cfg: &Config,
    inputs: &Inputs,
    receipts: &[&Value],
    server_labels_per_commit: f64,
    data_dir: &Path,
    run_dir: &Path,
    spans: &mut Spans,
    report: &mut Vec<String>,
    problems: &mut Vec<String>,
) -> io::Result<Vec<Metric>> {
    let mut out = Vec::new();

    // Recovery: open the run's data directory with cold caches, as a
    // restarted server does, then snapshot its longest history.
    let (median_ms, registry) = open_ms(data_dir, spans)?;
    let longest = registry
        .names()
        .into_iter()
        .filter_map(|name| registry.get(&name))
        .max_by_key(|slot| slot.lock().expect("project lock").project.history().len())
        .ok_or_else(|| io::Error::other("recovered store holds no project"))?;
    let slot = longest.lock().expect("project lock");
    let history = slot.project.history().len();
    let mut snapshot_us = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let (result, ns) = spans.time("store.snapshot", 0, || slot.snapshot());
        result.map_err(serve_err)?;
        snapshot_us.push(ns as f64 / 1e3);
    }
    drop(slot);
    drop(registry);
    out.push(metric("store.open_ms", median_ms, "ms"));
    out.push(metric(
        "store.snapshot_us",
        stats::median(&snapshot_us),
        "us",
    ));
    report.push(format!(
        "store.snapshot_us at a history of {history} entries"
    ));

    // Registration layers, on the registration probe: never-seen plans,
    // then the same scripts under new names, in the order a server
    // would see them.
    let probe = registration_probe(cfg.seed);
    clear_caches();
    let estimator = serving_estimator();
    let bounds_before = BoundsCache::global().stats();
    let plans_before = PlanCache::global().stats();
    for (i, p) in probe.iter().enumerate() {
        let (script, _) = spans.time("script.parse", i as u64, || CiScript::parse(&p.script));
        let script = script.map_err(serve_err)?;
        let hits = PlanCache::global().stats().hits;
        let start = spans.now();
        let estimate = std::hint::black_box(estimator.estimate(&script));
        let end = spans.now();
        estimate.map_err(serve_err)?;
        let name = if PlanCache::global().stats().hits > hits {
            "estimator.warm"
        } else {
            "estimator.cold"
        };
        spans.record(name, start, end, None, i as u64);
    }
    out.push(metric(
        "script.parse_us",
        mean_us(spans, "script.parse"),
        "us",
    ));
    out.push(metric(
        "estimator.cold_us",
        mean_us(spans, "estimator.cold"),
        "us",
    ));
    out.push(metric(
        "estimator.warm_us",
        mean_us(spans, "estimator.warm"),
        "us",
    ));
    out.push(metric(
        "cache.bounds_hit_ratio",
        hit_ratio(bounds_before, BoundsCache::global().stats()),
        "fraction",
    ));
    out.push(metric(
        "cache.plan_hit_ratio",
        hit_ratio(plans_before, PlanCache::global().stats()),
        "fraction",
    ));

    // The same registrations through a store, plans cached; then its
    // recovery, over many small projects.
    let register_dir = run_dir.join("layers-register");
    let store = open(&register_dir)?;
    for (i, p) in probe.iter().enumerate() {
        let (slot, _) = spans.time("store.register", i as u64, || {
            store.register(&p.name, &p.script, None)
        });
        slot.map_err(serve_err)?;
    }
    drop(store);
    out.push(metric(
        "store.register_us",
        mean_us(spans, "store.register"),
        "us",
    ));
    out.push(metric(
        "store.open_small_ms",
        open_ms(&register_dir, spans)?.0,
        "ms",
    ));

    // Commit layers: counts on the gate, predictions on measurement.
    let probe_counts;
    let counts_inputs = if cfg.workload == Workload::GateCounts {
        inputs
    } else {
        probe_counts = Inputs::generate(Workload::GateCounts, cfg.seed);
        &probe_counts
    };
    let counts_ops = if cfg.workload == Workload::GateCounts {
        &counts_inputs.lanes[0][..]
    } else {
        &counts_inputs.lanes[0][..PROBE_COUNTS.min(counts_inputs.lanes[0].len())]
    };
    let store = open(&run_dir.join("layers-commit"))?;
    let (gate_us, store_counts_us) = counts_layers(counts_inputs, counts_ops, &store, spans)?;

    let probe_predictions;
    let pred_inputs = if cfg.workload == Workload::GatePredictions {
        inputs
    } else {
        probe_predictions = Inputs::generate(Workload::GatePredictions, cfg.seed);
        &probe_predictions
    };
    let pred_ops = if cfg.workload == Workload::GatePredictions {
        &pred_inputs.lanes[0][..]
    } else {
        &pred_inputs.lanes[0][..PROBE_PREDICTIONS.min(pred_inputs.lanes[0].len())]
    };
    let pred = predictions_layers(pred_inputs, pred_ops, &store, spans)?;
    drop(store);

    if cfg.workload == Workload::GatePredictions {
        out.push(metric(
            "registry.gate_us",
            pred.submit_us - pred.measure_us,
            "us",
        ));
        out.push(metric(
            "store.commit_us",
            pred.store_us - pred.submit_us,
            "us",
        ));
        if (pred.labels_per_commit - server_labels_per_commit).abs() > 1e-9 {
            problems.push(format!(
                "in-process label spend {} per commit differs from the server's {server_labels_per_commit}",
                pred.labels_per_commit
            ));
        }
    } else {
        out.push(metric("registry.gate_us", gate_us, "us"));
        out.push(metric("store.commit_us", store_counts_us - gate_us, "us"));
    }
    out.push(metric("registry.measure_us", pred.measure_us, "us"));
    out.push(metric(
        "registry.labels_pulled",
        pred.labels_per_commit,
        "labels",
    ));
    out.push(metric(
        "json.vector_decode_us",
        mean_us(spans, "json.vector_decode"),
        "us",
    ));

    // Wire layers, on the run's exact request bytes and receipts.
    for (i, op) in inputs.lanes.iter().flatten().enumerate() {
        let mut parser = RequestParser::new();
        let (request, _) = spans.time("http.parse", i as u64, || {
            parser.push(&op.request);
            parser.next_request()
        });
        if !matches!(request, Ok(Some(_))) {
            return Err(io::Error::other(format!("request {i} does not parse")));
        }
        let body =
            std::str::from_utf8(&op.request[body_offset(&op.request)..]).map_err(serve_err)?;
        let (value, _) = spans.time("json.body_parse", i as u64, || Value::parse(body));
        value.map_err(serve_err)?;
    }
    for (i, receipt) in receipts.iter().enumerate() {
        spans.time("json.receipt_encode", i as u64, || receipt.encode());
    }
    out.push(metric("http.parse_us", mean_us(spans, "http.parse"), "us"));
    out.push(metric(
        "json.body_parse_us",
        mean_us(spans, "json.body_parse"),
        "us",
    ));
    out.push(metric(
        "json.receipt_encode_us",
        mean_us(spans, "json.receipt_encode"),
        "us",
    ));
    Ok(out)
}

/// Replay counts commits through an in-memory [`Project`] and a stored
/// [`easeml_serve::store::ProjectSlot`]; returns the mean µs of each.
fn counts_layers(
    inputs: &Inputs,
    ops: &[Op],
    store: &Registry,
    spans: &mut Spans,
) -> io::Result<(f64, f64)> {
    let p = &inputs.projects[0];
    let mut project =
        Project::register(&p.name, &p.script, &serving_estimator()).map_err(serve_err)?;
    let slot = store
        .register(&format!("c-{}", p.name), &p.script, None)
        .map_err(serve_err)?;
    let mut slot = slot.lock().expect("project lock");
    for (i, op) in ops.iter().enumerate() {
        let OpKind::Counts(submission) = &op.kind else {
            return Err(io::Error::other("counts layer given another op"));
        };
        let (gated, _) = spans.time("registry.gate", i as u64, || project.submit(submission));
        let (stored, _) = spans.time("store.submit", i as u64, || slot.submit(submission));
        if gated.map_err(serve_err)? != stored.map_err(serve_err)? {
            return Err(io::Error::other("stored and in-memory receipts differ"));
        }
    }
    Ok((
        mean_us(spans, "registry.gate"),
        mean_us(spans, "store.submit"),
    ))
}

/// Mean timings of the predictions path.
struct PredictionLayers {
    measure_us: f64,
    submit_us: f64,
    store_us: f64,
    labels_per_commit: f64,
}

/// Replay predictions commits through measurement alone, an in-memory
/// [`Project`], and a stored slot.
fn predictions_layers(
    inputs: &Inputs,
    ops: &[Op],
    store: &Registry,
    spans: &mut Spans,
) -> io::Result<PredictionLayers> {
    let p = &inputs.projects[0];
    let t = p
        .testset
        .as_ref()
        .expect("predictions project has a testset");
    let spec = TestsetSpec {
        truth: t.truth.clone(),
        classes: t.classes,
        lazy: true,
    };
    let old = inputs.old.as_ref().expect("predictions inputs carry old");
    let old_wire = encode_u32_vec(old);
    let script = CiScript::parse(&p.script).map_err(serve_err)?;
    let mut measured = MeasuredTestset::from_spec(spec.clone()).map_err(serve_err)?;
    let mut project = Project::register_with_testset(
        &p.name,
        &p.script,
        &serving_estimator(),
        Some(spec.clone()),
    )
    .map_err(serve_err)?;
    let slot = store
        .register(&format!("p-{}", p.name), &p.script, Some(spec))
        .map_err(serve_err)?;
    let mut slot = slot.lock().expect("project lock");
    let mut labels = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let OpKind::Predictions { commit_id, new, .. } = &op.kind else {
            return Err(io::Error::other("predictions layer given another op"));
        };
        let new_wire = encode_u32_vec(new);
        let (decoded, _) = spans.time("json.vector_decode", i as u64, || {
            (decode_u32_vec(&old_wire), decode_u32_vec(&new_wire))
        });
        let (old_v, new_v) = (decoded.0.map_err(serve_err)?, decoded.1.map_err(serve_err)?);
        let (m, _) = spans.time("registry.measure", i as u64, || {
            measured.measure(script.condition(), &old_v, &new_v)
        });
        m.map_err(serve_err)?;
        let submission = PredictionsSubmission {
            commit_id: commit_id.clone(),
            old: old_v,
            new: new_v,
        };
        let (receipt, _) = spans.time("registry.submit_predictions", i as u64, || {
            project.submit_predictions(&submission)
        });
        let (stored, _) = spans.time("store.submit_predictions", i as u64, || {
            slot.submit_predictions(&submission)
        });
        let (receipt, _) = receipt.map_err(serve_err)?;
        if stored.map_err(serve_err)?.0 != receipt {
            return Err(io::Error::other("stored and in-memory receipts differ"));
        }
        labels += receipt.labels;
    }
    Ok(PredictionLayers {
        measure_us: mean_us(spans, "registry.measure"),
        submit_us: mean_us(spans, "registry.submit_predictions"),
        store_us: mean_us(spans, "store.submit_predictions"),
        labels_per_commit: labels as f64 / ops.len() as f64,
    })
}
