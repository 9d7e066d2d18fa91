//! Seeded workload inputs.
//!
//! Everything a run sends is generated here, before the timed phase,
//! from the workload and the seed: the same two give byte-identical
//! requests. Sizes are fixed operation counts, never durations, so
//! counted metrics repeat exactly across runs.

use crate::client::request_bytes;
use easeml_serve::json::{encode_u32_vec, Value};
use easeml_serve::{CommitSubmission, EvalCounts};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections, one counts-mode project each, long histories:
    /// transport, event core, gate, journal, group commit and snapshots,
    /// with measurement idle.
    GateCounts,
    /// One connection, one server-measured project over a lazily
    /// labelled testset: vector decoding, the measurement kernel, the
    /// label oracle and large journal records, with the gate nearly free.
    GatePredictions,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::GateCounts, Workload::GatePredictions];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GateCounts => "gate_counts",
            Workload::GatePredictions => "gate_predictions",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections (client threads) of the timed phase.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Workload::GateCounts => 2,
            Workload::GatePredictions => 1,
        }
    }

    /// Commits per connection and repetition: a fixed count, never a
    /// duration, so each history ends at the same length and its last
    /// snapshots cost the same in every run.
    #[must_use]
    pub fn ops_per_lane(self) -> usize {
        match self {
            Workload::GateCounts => 2_000,
            Workload::GatePredictions => 1_000,
        }
    }

    /// Repetitions of set-up and timed phase in a run of `seconds`: one
    /// a second, at least two.
    #[must_use]
    pub fn repetitions(self, seconds: u64) -> usize {
        seconds.max(2) as usize
    }
}

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A `.travis.yml`-style CI script.
fn script(condition: &str, reliability: &str, mode: &str, adaptivity: &str, steps: u64) -> String {
    format!(
        "ml:\n\
         \x20 - script     : ./test_model.py\n\
         \x20 - condition  : {condition}\n\
         \x20 - reliability: {reliability}\n\
         \x20 - mode       : {mode}\n\
         \x20 - adaptivity : {adaptivity}\n\
         \x20 - steps      : {steps}\n"
    )
}

/// Step budget of the gate workloads' projects: larger than any run.
const GATE_STEPS: u64 = 1_000_000;

/// Condition of the predictions project: an improvement clause whose `n`
/// and `o` coefficients cancel (label demand: disagreements only) and a
/// label-free difference clause.
const PREDICTIONS_CONDITION: &str = "n - o > 0.02 +/- 0.05 /\\ d < 0.1 +/- 0.1";

/// Classes of the predictions testset.
const PREDICTIONS_CLASSES: u32 = 4;

/// Items of the predictions testset; the set-up checks that the server
/// reports it meets the script's estimated sample size.
const PREDICTIONS_ITEMS: usize = 4_096;

/// Share of items, in 1/10000, at which a new vector differs from `old`.
const FLIP_BASIS_POINTS: (u64, u64) = (20, 100);

/// Scripts the registration probe cycles through: five run the
/// exact-binomial plan search (a few hundred µs each, cold), one matches
/// an optimized pattern. Their estimates grow only slowly with the step
/// budget, so the seed's choice of budgets barely moves their cost.
const REGISTER_SHAPES: [(&str, &str, &str, &str); 6] = [
    ("n > 0.7 +/- 0.02", "0.999", "fp-free", "firstChange"),
    ("d < 0.1 +/- 0.02", "0.9999", "fn-free", "firstChange"),
    ("n > 0.8 +/- 0.015", "0.99", "fn-free", "firstChange"),
    ("o < 0.85 +/- 0.02", "0.999", "fn-free", "firstChange"),
    (
        "n - o > 0.02 +/- 0.02 /\\ d < 0.1 +/- 0.05",
        "0.999",
        "fp-free",
        "firstChange",
    ),
    ("n > 0.6 +/- 0.03", "0.9999", "fp-free", "none"),
];

/// Distinct scripts of the registration probe.
const REGISTER_SCRIPTS: usize = 150;

/// A server-side testset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestsetInput {
    /// Ground truth, one class per item.
    pub truth: Vec<u32>,
    /// Number of classes.
    pub classes: u32,
}

/// One project the run registers.
#[derive(Debug, Clone)]
pub struct ProjectInput {
    /// Project name.
    pub name: String,
    /// CI script text.
    pub script: String,
    /// Server-side testset (predictions projects only), lazily labelled.
    pub testset: Option<TestsetInput>,
    /// The `POST /projects` request.
    pub request: Vec<u8>,
}

/// What a timed commit submits.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Client-measured evaluation counts.
    Counts(CommitSubmission),
    /// Prediction vectors the server measures; `old` is [`Inputs::old`].
    Predictions {
        /// Commit identifier.
        commit_id: String,
        /// The new model's predictions.
        new: Vec<u32>,
    },
}

/// One timed commit.
#[derive(Debug, Clone)]
pub struct Op {
    /// The exact request bytes sent.
    pub request: Vec<u8>,
    /// What the request submits.
    pub kind: OpKind,
}

/// Every input of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Projects the set-up registers; connection `i` commits to project
    /// `i`.
    pub projects: Vec<ProjectInput>,
    /// The accepted model's predictions (predictions workload).
    pub old: Option<Vec<u32>>,
    /// Timed commits, one list per connection.
    pub lanes: Vec<Vec<Op>>,
}

/// A project and its registration request.
fn project(name: String, script: String, testset: Option<TestsetInput>) -> ProjectInput {
    let mut fields = vec![
        ("name", Value::from(name.as_str())),
        ("script", Value::from(script.as_str())),
    ];
    if let Some(t) = &testset {
        fields.push((
            "testset",
            Value::object([
                ("labels", Value::from(encode_u32_vec(&t.truth))),
                ("labeling", Value::from("lazy")),
                ("classes", Value::from(t.classes)),
            ]),
        ));
    }
    let request = request_bytes("POST", "/projects", Some(&Value::object(fields).encode()));
    ProjectInput {
        name,
        script,
        testset,
        request,
    }
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let ops = workload.ops_per_lane();
        match workload {
            Workload::GateCounts => gate_counts(seed, ops),
            Workload::GatePredictions => gate_predictions(seed, ops),
        }
    }

    /// Number of timed commits.
    #[must_use]
    pub fn timed_ops(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Every byte the run sends, in a fixed order (for the determinism
    /// test).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for p in &self.projects {
            out.extend_from_slice(&p.request);
        }
        for op in self.lanes.iter().flatten() {
            out.extend_from_slice(&op.request);
        }
        out
    }
}

fn gate_counts(seed: u64, ops: usize) -> Inputs {
    let lanes = Workload::GateCounts.lanes();
    let projects: Vec<ProjectInput> = (0..lanes)
        .map(|lane| {
            // Distinct budgets: each registration is a distinct plan.
            let steps = GATE_STEPS + lane as u64;
            let script = script("n - o > 0.01 +/- 0.01", "0.999", "fp-free", "full", steps);
            project(format!("counts-{lane}"), script, None)
        })
        .collect();
    let lanes = projects
        .iter()
        .enumerate()
        .map(|(lane, p)| {
            let mut rng = Rng::new(seed, 100 + lane as u64);
            let path = format!("/projects/{}/commits", p.name);
            (0..ops)
                .map(|i| {
                    let old_correct = rng.range(8_000, 8_400);
                    let new_correct = rng.range(7_800, 8_800);
                    let changed = new_correct.abs_diff(old_correct) + rng.range(0, 600);
                    let counts = EvalCounts {
                        samples: 10_000,
                        new_correct,
                        old_correct,
                        changed,
                        // The client labelled the items the models
                        // disagree on.
                        labels: changed,
                        per_class: None,
                    };
                    let commit_id = format!("c{lane}-{i:06}");
                    let body = Value::object([
                        ("commit_id", Value::from(commit_id.as_str())),
                        ("samples", Value::from(counts.samples)),
                        ("new_correct", Value::from(counts.new_correct)),
                        ("old_correct", Value::from(counts.old_correct)),
                        ("changed", Value::from(counts.changed)),
                        ("labels", Value::from(counts.labels)),
                    ]);
                    Op {
                        request: request_bytes("POST", &path, Some(&body.encode())),
                        kind: OpKind::Counts(CommitSubmission { commit_id, counts }),
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        projects,
        old: None,
        lanes,
    }
}

/// A class other than `class`, uniformly.
fn other_class(rng: &mut Rng, class: u32, classes: u32) -> u32 {
    (class + 1 + rng.below(u64::from(classes - 1)) as u32) % classes
}

fn gate_predictions(seed: u64, ops: usize) -> Inputs {
    let classes = PREDICTIONS_CLASSES;
    let mut rng = Rng::new(seed, 200);
    let truth: Vec<u32> = (0..PREDICTIONS_ITEMS)
        .map(|_| rng.below(u64::from(classes)) as u32)
        .collect();
    // The accepted model is right on ~85% of items.
    let old: Vec<u32> = truth
        .iter()
        .map(|&t| {
            if rng.below(100) < 85 {
                t
            } else {
                other_class(&mut rng, t, classes)
            }
        })
        .collect();
    let script = script(
        PREDICTIONS_CONDITION,
        "0.999",
        "fp-free",
        "none",
        GATE_STEPS,
    );
    let projects = vec![project(
        "predictions".to_owned(),
        script,
        Some(TestsetInput { truth, classes }),
    )];
    let old_wire = encode_u32_vec(&old);
    let mut rng = Rng::new(seed, 201);
    let lane = (0..ops)
        .map(|i| {
            let mut new = old.clone();
            let flips = PREDICTIONS_ITEMS as u64
                * rng.range(FLIP_BASIS_POINTS.0, FLIP_BASIS_POINTS.1)
                / 10_000;
            for _ in 0..flips {
                let at = rng.below(PREDICTIONS_ITEMS as u64) as usize;
                new[at] = other_class(&mut rng, old[at], classes);
            }
            let commit_id = format!("p{i:06}");
            let body = Value::object([
                ("commit_id", Value::from(commit_id.as_str())),
                ("old", Value::from(old_wire.as_str())),
                ("new", Value::from(encode_u32_vec(&new))),
            ]);
            Op {
                request: request_bytes(
                    "POST",
                    "/projects/predictions/commits/predictions",
                    Some(&body.encode()),
                ),
                kind: OpKind::Predictions { commit_id, new },
            }
        })
        .collect();
    Inputs {
        projects,
        old: Some(old),
        lanes: vec![lane],
    }
}

/// The registration probe's projects: [`REGISTER_SCRIPTS`] scripts with
/// never-seen plan fingerprints (`cold-*`), then the same scripts again
/// under new names, whose plans a warm cache holds (`warm-*`).
#[must_use]
pub fn registration_probe(seed: u64) -> Vec<ProjectInput> {
    // Distinct step budgets make every script a distinct plan
    // fingerprint; the seed shifts the whole range. Shapes cycle, so
    // every seed asks for the same mix of plan searches.
    let base = 100 + Rng::new(seed, 300).below(100);
    let scripts: Vec<String> = (0..REGISTER_SCRIPTS)
        .map(|i| {
            let (condition, reliability, mode, adaptivity) =
                REGISTER_SHAPES[i % REGISTER_SHAPES.len()];
            script(condition, reliability, mode, adaptivity, base + i as u64)
        })
        .collect();
    ["cold", "warm"]
        .into_iter()
        .flat_map(|kind| {
            scripts
                .iter()
                .enumerate()
                .map(move |(i, s)| project(format!("{kind}-{i:04}"), s.clone(), None))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7).to_bytes();
            let b = Inputs::generate(workload, 7).to_bytes();
            assert!(a == b, "{} inputs differ for one seed", workload.name());
            let c = Inputs::generate(workload, 8).to_bytes();
            assert!(a != c, "{} inputs ignore the seed", workload.name());
        }
        let probe = |seed| -> Vec<u8> {
            registration_probe(seed)
                .iter()
                .flat_map(|p| p.request.clone())
                .collect()
        };
        assert!(probe(7) == probe(7));
        assert!(probe(7) != probe(8));
    }

    #[test]
    fn operation_counts_do_not_depend_on_the_seed() {
        for workload in Workload::ALL {
            let one = Inputs::generate(workload, 1).timed_ops();
            assert_eq!(one, Inputs::generate(workload, 2).timed_ops());
            assert_eq!(one, workload.lanes() * workload.ops_per_lane());
        }
    }

    #[test]
    fn predictions_vectors_differ_from_old_at_a_bounded_share() {
        let inputs = Inputs::generate(Workload::GatePredictions, 3);
        let old = inputs.old.as_ref().expect("predictions inputs carry old");
        for op in &inputs.lanes[0] {
            let OpKind::Predictions { new, .. } = &op.kind else {
                panic!("predictions lane holds other ops");
            };
            let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
            assert!(changed > 0);
            assert!(changed <= PREDICTIONS_ITEMS * FLIP_BASIS_POINTS.1 as usize / 10_000);
        }
    }
}
