//! Measurement layer of the engine: turns predictions + (lazily acquired)
//! labels into integer counts, and counts into clause-level estimates.
//!
//! The key optimization (Technical Observation 2, §4) is that the
//! prediction difference `d` needs no labels at all, and a pure
//! difference `n − o` only needs labels where the two models *disagree*:
//! on agreeing points `nᵢ − oᵢ = 0` regardless of the label. The one
//! entry point, [`Measurement::counts`], exploits both, requesting labels
//! from the oracle only when a formula genuinely needs them and reporting
//! how many fresh labels each evaluation consumed.

use super::testset::{LabelOracle, Testset};
use crate::dsl::{Clause, Formula, LinearForm, Var};
use crate::error::{CiError, EngineError, Result};
use crate::eval::{VariableEstimates, MAX_TOPK_ESTIMATES};
use std::ops::Range;

/// A label (or prediction) vector bit-packed as per-class bitmaps: bit
/// `i % 64` of word `i / 64` in class `c`'s bitmap is set iff item `i`
/// carries class `c`. Equality tests between two vectors then become
/// word-level AND + popcount instead of per-item compares — the input
/// of [`Measurement::counts`]'s packed kernel.
///
/// Capped at [`ClassBitmaps::MAX_CLASSES`] classes to bound the packed
/// size at 64 bits per item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassBitmaps {
    len: usize,
    words: usize,
    classes: u32,
    /// Class-major: class `c` occupies `bits[c*words .. (c+1)*words]`.
    bits: Vec<u64>,
}

impl ClassBitmaps {
    /// Maximum class count the packed representation accepts.
    pub const MAX_CLASSES: u32 = 64;

    /// Pack a vector of class labels. Returns `None` when the class
    /// count is 0, exceeds [`ClassBitmaps::MAX_CLASSES`], or any label
    /// falls outside `0..classes` (callers fall back to the per-item
    /// path).
    #[must_use]
    pub fn from_labels(labels: &[u32], classes: u32) -> Option<ClassBitmaps> {
        if classes == 0 || classes > Self::MAX_CLASSES {
            return None;
        }
        let len = labels.len();
        let words = len.div_ceil(64);
        let mut bits = vec![0u64; classes as usize * words];
        for (i, &label) in labels.iter().enumerate() {
            if label >= classes {
                return None;
            }
            bits[label as usize * words + i / 64] |= 1u64 << (i % 64);
        }
        Some(ClassBitmaps {
            len,
            words,
            classes,
            bits,
        })
    }

    /// Items packed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the packed vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Class count.
    #[must_use]
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The bitmap of class `c`.
    fn class(&self, c: u32) -> &[u64] {
        let c = c as usize;
        &self.bits[c * self.words..(c + 1) * self.words]
    }
}

/// How much ground-truth labelling a condition demands per testset item
/// (§4.1.2). Ordered by cost: [`LabelDemand::Free`] <
/// [`LabelDemand::Disagreements`] < [`LabelDemand::Full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LabelDemand {
    /// No labels needed: the condition only reads `d`.
    Free,
    /// Only items where the two models disagree need labels: every
    /// `n`/`o` occurrence cancels into a pure difference (`αₙ = −αₒ`).
    Disagreements,
    /// Every item in the measured range needs a label (a clause reads
    /// `n` or `o` individually).
    Full,
}

/// The labelling demand of a clause: the cheapest strategy sufficient to
/// measure its left-hand side exactly.
///
/// Metric variables (`f1(...)`, `topk(...)`) always demand
/// [`LabelDemand::Full`]: per-class confusion counts need the true class
/// of every item, and their coefficients are invisible to the `n`/`o`
/// cancellation analysis below — without this branch a pure-metric
/// clause would silently classify as [`LabelDemand::Free`].
#[must_use]
pub fn clause_label_demand(clause: &Clause) -> LabelDemand {
    let form = LinearForm::from_expr(&clause.expr);
    if form.has_metric() {
        return LabelDemand::Full;
    }
    let a_n = form.coefficient(Var::N);
    let a_o = form.coefficient(Var::O);
    if a_n == 0.0 && a_o == 0.0 {
        LabelDemand::Free
    } else if a_n == -a_o {
        LabelDemand::Disagreements
    } else {
        LabelDemand::Full
    }
}

/// The labelling demand of a whole formula: the maximum over its clauses.
#[must_use]
pub fn formula_label_demand(formula: &Formula) -> LabelDemand {
    formula
        .clauses()
        .iter()
        .map(clause_label_demand)
        .max()
        .unwrap_or(LabelDemand::Free)
}

/// Evaluation counts derived by measuring prediction vectors against a
/// (possibly partially labelled) testset through
/// [`Measurement::counts`] — the wire currency of the serving layer's
/// counts gate, and the integers the engine's clause values are computed
/// from ([`MeasuredCounts::clause_value`]).
///
/// `new_correct` and `old_correct` credit *both* models on items whose
/// label stayed unknown, so the pair is exact exactly where the formula's
/// [`LabelDemand`] needs it: `changed` is always exact,
/// `new_correct − old_correct` is exact whenever every disagreement in
/// the range is labelled, and the individual counts are exact under
/// [`LabelDemand::Full`]. Feeding these counts to a gate that evaluates
/// the *same* formula therefore reproduces the fully-labelled decision
/// at a fraction of the labelling cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredCounts {
    /// Items measured.
    pub samples: u64,
    /// Items credited to the new model (see type docs for the
    /// unknown-label convention).
    pub new_correct: u64,
    /// Items credited to the old model.
    pub old_correct: u64,
    /// Items where the two models' predictions differ (always exact,
    /// label-free).
    pub changed: u64,
    /// Fresh labels pulled from the oracle by this derivation.
    pub labels_spent: u64,
}

impl MeasuredCounts {
    /// The left-hand side of a plain (`n`/`o`/`d`) clause over the
    /// measured items, computed the way the cheapest sufficient
    /// measurement strategy defines it:
    ///
    /// * `d` terms from the label-free `changed` count;
    /// * where the `n` and `o` coefficients cancel (`αₙ = −αₒ`), from the
    ///   difference `new_correct − old_correct`, which only needs the
    ///   disagreements labelled;
    /// * anything else from the individual (fully labelled) counts.
    ///
    /// # Errors
    ///
    /// Rejects metric clauses loudly: `f1(...)`/`topk(...)` are not
    /// linear in these counts, so silently evaluating the plain terms
    /// would report a wrong left-hand side.
    pub fn clause_value(&self, clause: &Clause) -> Result<f64> {
        let form = LinearForm::from_expr(&clause.expr);
        if form.has_metric() {
            return Err(CiError::Semantic(format!(
                "clause `{clause}` reads metric variables (f1/topk); evaluate it from \
                 per-class counts, not the scalar counts"
            )));
        }
        let len = self.samples.max(1) as f64;
        let a_n = form.coefficient(Var::N);
        let a_o = form.coefficient(Var::O);
        let a_d = form.coefficient(Var::D);
        let d_part = if a_d != 0.0 {
            a_d * (self.changed as f64 / len)
        } else {
            0.0
        };
        if a_n == 0.0 && a_o == 0.0 {
            return Ok(d_part);
        }
        if a_n == -a_o {
            let delta = self.new_correct as i64 - self.old_correct as i64;
            return Ok(a_n * (delta as f64 / len) + d_part);
        }
        let n_part = if a_n != 0.0 {
            a_n * (self.new_correct as f64 / len)
        } else {
            0.0
        };
        let o_part = if a_o != 0.0 {
            a_o * (self.old_correct as f64 / len)
        } else {
            0.0
        };
        Ok(n_part + o_part + d_part)
    }
}

/// Per-class confusion counts over the *labelled* portion of a measured
/// range — the extra statistics non-binomial metrics (`f1(...)`,
/// `topk(...)`) need beyond [`MeasuredCounts`]. Metric formulas demand
/// [`LabelDemand::Full`], so when these counts back a metric gate every
/// item in the range is labelled and `support` sums to `samples`.
///
/// All vectors are indexed by class id and have length `classes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerClassCounts {
    /// Declared class count (vector length).
    pub classes: u32,
    /// Labelled items whose true class is `c`.
    pub support: Vec<u64>,
    /// Labelled items where the new model predicts `c` correctly.
    pub new_tp: Vec<u64>,
    /// Labelled items where the old model predicts `c` correctly.
    pub old_tp: Vec<u64>,
    /// Labelled items where the new model predicts `c` (right or wrong).
    pub new_pred: Vec<u64>,
    /// Labelled items where the old model predicts `c`.
    pub old_pred: Vec<u64>,
}

impl PerClassCounts {
    /// All-zero counts for `classes` classes.
    #[must_use]
    pub fn zeroed(classes: u32) -> PerClassCounts {
        let n = classes as usize;
        PerClassCounts {
            classes,
            support: vec![0; n],
            new_tp: vec![0; n],
            old_tp: vec![0; n],
            new_pred: vec![0; n],
            old_pred: vec![0; n],
        }
    }

    /// Total labelled items the counts cover.
    #[must_use]
    pub fn labeled(&self) -> u64 {
        self.support.iter().sum()
    }

    /// Binary F1 with class 1 as positive — the statistic `f1(n)` /
    /// `f1(o)` measures. Follows the convention of
    /// [`crate::extensions::f1_score`]: zero true positives give 0.0.
    #[must_use]
    pub fn f1(&self, new_model: bool) -> f64 {
        let positive = 1usize;
        let (tp, pred) = if new_model {
            (self.new_tp[positive], self.new_pred[positive])
        } else {
            (self.old_tp[positive], self.old_pred[positive])
        };
        if tp == 0 {
            return 0.0;
        }
        let fp = pred - tp;
        let fn_ = self.support[positive] - tp;
        2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
    }

    /// The `k` most frequent classes by support, ties broken towards the
    /// lower class id — the class set `topk(m, k)` restricts to.
    #[must_use]
    pub fn top_classes(&self, k: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.classes).collect();
        ids.sort_by(|&a, &b| {
            self.support[b as usize]
                .cmp(&self.support[a as usize])
                .then(a.cmp(&b))
        });
        ids.truncate(k as usize);
        ids
    }

    /// Accuracy restricted to items whose true class is among the `k`
    /// most frequent classes ([`PerClassCounts::top_classes`]) — the
    /// statistic `topk(n, k)` / `topk(o, k)` measures. An empty
    /// restriction (no support in the top classes) gives 0.0.
    #[must_use]
    pub fn topk(&self, new_model: bool, k: u32) -> f64 {
        let tp = if new_model {
            &self.new_tp
        } else {
            &self.old_tp
        };
        let mut num = 0u64;
        let mut den = 0u64;
        for c in self.top_classes(k) {
            num += tp[c as usize];
            den += self.support[c as usize];
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Fill in the metric estimates a formula reads
    /// ([`VariableEstimates::f1_n`] and friends) from these counts.
    ///
    /// # Errors
    ///
    /// Rejects formulas these counts cannot back
    /// (see [`validate_metric_formula`]).
    pub fn populate_estimates(
        &self,
        formula: &Formula,
        estimates: &mut VariableEstimates,
    ) -> Result<()> {
        validate_metric_formula(formula, self.classes)?;
        for var in formula.variables() {
            match var {
                Var::F1N => estimates.f1_n = Some(self.f1(true)),
                Var::F1O => estimates.f1_o = Some(self.f1(false)),
                Var::TopKN(k) => estimates.set_topk(true, k, self.topk(true, k)),
                Var::TopKO(k) => estimates.set_topk(false, k, self.topk(false, k)),
                Var::N | Var::O | Var::D => {}
            }
        }
        Ok(())
    }
}

/// Check that a testset with `classes` classes can measure every metric
/// variable a formula reads. Plain (`n`/`o`/`d`) formulas always pass.
///
/// # Errors
///
/// * `f1(...)` over fewer than 2 classes (F1 is binary, positive = 1);
/// * `topk(m, k)` with `k` exceeding the class count;
/// * more than [`MAX_TOPK_ESTIMATES`] distinct `k`s in one formula.
pub fn validate_metric_formula(formula: &Formula, classes: u32) -> Result<()> {
    let vars = formula.variables();
    if vars.iter().any(|v| matches!(v, Var::F1N | Var::F1O)) && classes < 2 {
        return Err(CiError::Semantic(format!(
            "f1(...) needs at least 2 classes (positive class is 1), testset declares {classes}"
        )));
    }
    let ks = formula.topk_ks();
    if ks.len() > MAX_TOPK_ESTIMATES {
        return Err(CiError::Semantic(format!(
            "formula uses {} distinct topk class counts, at most {MAX_TOPK_ESTIMATES} supported",
            ks.len()
        )));
    }
    if let Some(&k) = ks.iter().find(|&&k| k > classes) {
        return Err(CiError::Semantic(format!(
            "topk({k}) exceeds the testset's {classes} class(es)"
        )));
    }
    Ok(())
}

/// Per-commit measurement summary, as recorded in receipts and history.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommitEstimates {
    /// Estimated fraction of changed predictions (`d̂`), when measured.
    pub d: Option<f64>,
    /// Estimated new-model accuracy (`n̂`), when individually measured.
    pub n: Option<f64>,
    /// Estimated old-model accuracy (`ô`), when individually measured.
    pub o: Option<f64>,
    /// Directly measured accuracy difference (`n̂ − ô` via the
    /// disagreement trick), when used.
    pub diff: Option<f64>,
    /// Fresh labels requested from the oracle during this evaluation.
    pub labels_requested: u64,
}

/// Evaluation context for one commit: the testset (mutable: labels fill
/// in lazily), an optional oracle, and the two prediction vectors.
pub struct Measurement<'a> {
    testset: &'a mut Testset,
    oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
    old: &'a [u32],
    new: &'a [u32],
    classes: Option<u32>,
    truth: Option<&'a ClassBitmaps>,
    labels_requested: u64,
}

impl std::fmt::Debug for Measurement<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measurement")
            .field("testset_len", &self.testset.len())
            .field("has_oracle", &self.oracle.is_some())
            .field("classes", &self.classes)
            .field("packed_truth", &self.truth.is_some())
            .field("labels_requested", &self.labels_requested)
            .finish_non_exhaustive()
    }
}

impl<'a> Measurement<'a> {
    /// Create a measurement context.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PredictionLengthMismatch`] if either
    /// prediction vector does not cover the testset.
    pub fn new(
        testset: &'a mut Testset,
        oracle: Option<&'a mut (dyn LabelOracle + 'static)>,
        old: &'a [u32],
        new: &'a [u32],
    ) -> Result<Self> {
        let want = testset.len();
        for got in [old.len(), new.len()] {
            if got != want {
                return Err(EngineError::PredictionLengthMismatch { got, want }.into());
            }
        }
        Ok(Measurement {
            testset,
            oracle,
            old,
            new,
            classes: None,
            truth: None,
            labels_requested: 0,
        })
    }

    /// Declare the testset's class count, which metric formulas need,
    /// and optionally its ground truth bit-packed per class, which lets
    /// whole-pool measurements run on the packed kernel.
    ///
    /// `truth` must pack the same ground truth the testset's cached
    /// labels come from (label `i` known ⇒ it equals the truth at `i`).
    #[must_use]
    pub fn with_classes(mut self, classes: u32, truth: Option<&'a ClassBitmaps>) -> Self {
        self.classes = Some(classes);
        self.truth = truth;
        self
    }

    /// Fresh labels pulled from the oracle so far.
    #[must_use]
    pub fn labels_requested(&self) -> u64 {
        self.labels_requested
    }

    /// Derive [`MeasuredCounts`] for a formula over a range, spending
    /// only the labels the formula's [`LabelDemand`] requires:
    ///
    /// * [`LabelDemand::Free`]: no oracle calls;
    /// * [`LabelDemand::Disagreements`]: labels only where the two
    ///   models disagree (§4.1.2 difference trick);
    /// * [`LabelDemand::Full`]: labels every item in the range.
    ///
    /// Fresh labels are pulled in ascending item order. Items whose label
    /// is already cached are scored exactly regardless of demand; items
    /// that stay unlabelled credit both models (see [`MeasuredCounts`]).
    /// Metric formulas (demand Full) also tally the [`PerClassCounts`];
    /// plain formulas return `None` for them.
    ///
    /// The bit-packed kernel serves the call when packed truth was
    /// supplied ([`Measurement::with_classes`]), the range is the whole
    /// pool, and both prediction vectors pack; the per-item kernel serves
    /// every other call. The two are bit-identical in counts, pool state,
    /// and oracle spend.
    ///
    /// # Errors
    ///
    /// Propagates label-acquisition failures. Rejects metric formulas
    /// without a declared class count, formulas the class count cannot
    /// back ([`validate_metric_formula`]), and — for metric formulas —
    /// labels or predictions outside `0..classes`.
    pub fn counts(
        &mut self,
        formula: &Formula,
        range: Range<usize>,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let classes = if formula.has_metric() {
            let classes = self.classes.ok_or_else(|| {
                CiError::Semantic(
                    "formula reads metric variables (f1/topk) that scalar counts cannot carry; \
                     declare the testset's class count to derive per-class confusion counts"
                        .into(),
                )
            })?;
            validate_metric_formula(formula, classes)?;
            Some(classes)
        } else {
            None
        };
        let demand = formula_label_demand(formula);
        let spent_before = self.labels_requested;
        let (mut counts, per_class) = match self.packed_inputs(&range) {
            Some((truth, old, new)) => {
                self.packed_kernel(demand, classes.is_some(), truth, &old, &new)?
            }
            None => self.per_item_kernel(demand, classes, range)?,
        };
        counts.labels_spent = self.labels_requested - spent_before;
        Ok((counts, per_class))
    }

    /// The packed truth and both prediction vectors packed alike, when
    /// the packed kernel may serve a measurement of `range`.
    fn packed_inputs(
        &self,
        range: &Range<usize>,
    ) -> Option<(&'a ClassBitmaps, ClassBitmaps, ClassBitmaps)> {
        let truth = self.truth?;
        let whole = range.start == 0 && range.end == self.testset.len();
        if !whole || truth.len() != range.end || self.classes != Some(truth.classes()) {
            return None;
        }
        Some((
            truth,
            ClassBitmaps::from_labels(self.old, truth.classes())?,
            ClassBitmaps::from_labels(self.new, truth.classes())?,
        ))
    }

    /// Pull (or read the cached) label of item `i`.
    fn require_label(&mut self, i: usize) -> Result<u32> {
        let (label, fresh) = self.testset.require_label(i, self.oracle.as_deref_mut())?;
        self.labels_requested += u64::from(fresh);
        Ok(label)
    }

    /// The per-item kernel: one pass over `range`, in item order. It
    /// serves sub-ranges (the engine's plan phases) and pools the packed
    /// kernel cannot represent, and is the packed kernel's reference.
    fn per_item_kernel(
        &mut self,
        demand: LabelDemand,
        classes: Option<u32>,
        range: Range<usize>,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let mut per_class = classes.map(PerClassCounts::zeroed);
        let (mut changed, mut new_correct, mut old_correct) = (0u64, 0u64, 0u64);
        for i in range.clone() {
            let (old, new) = (self.old[i], self.new[i]);
            changed += u64::from(old != new);
            let need = match demand {
                LabelDemand::Free => false,
                LabelDemand::Disagreements => old != new,
                LabelDemand::Full => true,
            };
            let label = if need {
                Some(self.require_label(i)?)
            } else {
                self.testset.label(i)
            };
            // Unknown label: identical credit to both models. The formula
            // never reads the statistics this distorts (or the item would
            // have been labelled above).
            let Some(label) = label else {
                new_correct += 1;
                old_correct += 1;
                continue;
            };
            new_correct += u64::from(new == label);
            old_correct += u64::from(old == label);
            if let Some(pc) = per_class.as_mut() {
                for (what, value) in [
                    ("label", label),
                    ("old prediction", old),
                    ("new prediction", new),
                ] {
                    if value >= pc.classes {
                        return Err(CiError::Semantic(format!(
                            "{what} {value} for item {i} is outside the declared class range 0..{}",
                            pc.classes
                        )));
                    }
                }
                pc.support[label as usize] += 1;
                pc.new_pred[new as usize] += 1;
                pc.old_pred[old as usize] += 1;
                pc.new_tp[label as usize] += u64::from(new == label);
                pc.old_tp[label as usize] += u64::from(old == label);
            }
        }
        let counts = MeasuredCounts {
            samples: range.len() as u64,
            new_correct,
            old_correct,
            changed,
            labels_spent: 0,
        };
        Ok((counts, per_class))
    }

    /// The bit-packed kernel over the whole pool: predictions and truth
    /// as per-class bitmaps, so `changed` and the correctness credits are
    /// word-level AND + popcount instead of per-item compares.
    fn packed_kernel(
        &mut self,
        demand: LabelDemand,
        per_class: bool,
        truth: &ClassBitmaps,
        old: &ClassBitmaps,
        new: &ClassBitmaps,
    ) -> Result<(MeasuredCounts, Option<PerClassCounts>)> {
        let len = truth.len();
        let words = len.div_ceil(64);
        let tail_mask = |w: usize| -> u64 {
            if w + 1 == words && !len.is_multiple_of(64) {
                (1u64 << (len % 64)) - 1
            } else {
                !0
            }
        };

        // Agreement: per class, both models predict it; union over
        // classes. Tail bits beyond `len` stay zero in every bitmap.
        let mut disagree = vec![0u64; words];
        for c in 0..truth.classes() {
            let (o, n) = (old.class(c), new.class(c));
            for w in 0..words {
                disagree[w] |= o[w] & n[w];
            }
        }
        let mut changed = 0u64;
        for (w, word) in disagree.iter_mut().enumerate() {
            *word = !*word & tail_mask(w);
            changed += u64::from(word.count_ones());
        }

        // Pull the labels the demand requires, ascending — the same
        // oracle call sequence the per-item kernel makes.
        let mut known = self.testset.known_words();
        for w in 0..words {
            let need = match demand {
                LabelDemand::Free => 0,
                LabelDemand::Disagreements => disagree[w],
                LabelDemand::Full => tail_mask(w),
            };
            let mut fresh = need & !known[w];
            while fresh != 0 {
                let bit = fresh.trailing_zeros() as usize;
                self.require_label(w * 64 + bit)?;
                known[w] |= 1u64 << bit;
                fresh &= fresh - 1;
            }
        }

        // Correctness credit: exact where the label is known, both
        // models credited where it is not. Per-class tallies cover the
        // known items only (all of them under a metric's Full demand).
        let unknown: u64 = known
            .iter()
            .enumerate()
            .map(|(w, word)| u64::from((!word & tail_mask(w)).count_ones()))
            .sum();
        let mut per_class = per_class.then(|| PerClassCounts::zeroed(truth.classes()));
        let (mut new_correct, mut old_correct) = (unknown, unknown);
        for c in 0..truth.classes() {
            let (t, o, n) = (truth.class(c), old.class(c), new.class(c));
            let (mut new_tp, mut old_tp) = (0u64, 0u64);
            for w in 0..words {
                let scored = t[w] & known[w];
                new_tp += u64::from((n[w] & scored).count_ones());
                old_tp += u64::from((o[w] & scored).count_ones());
            }
            new_correct += new_tp;
            old_correct += old_tp;
            if let Some(pc) = per_class.as_mut() {
                let ci = c as usize;
                pc.new_tp[ci] = new_tp;
                pc.old_tp[ci] = old_tp;
                for w in 0..words {
                    pc.support[ci] += u64::from((t[w] & known[w]).count_ones());
                    pc.new_pred[ci] += u64::from((n[w] & known[w]).count_ones());
                    pc.old_pred[ci] += u64::from((o[w] & known[w]).count_ones());
                }
            }
        }
        let counts = MeasuredCounts {
            samples: len as u64,
            new_correct,
            old_correct,
            changed,
            labels_spent: 0,
        };
        Ok((counts, per_class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_clause, parse_formula};
    use crate::engine::testset::VecOracle;

    /// 10 items; labels all 0. Old model predicts 0 except items 8, 9
    /// (accuracy 0.8). New model predicts 0 except item 9 (accuracy 0.9).
    /// They disagree exactly on item 8 (d = 0.1).
    fn fixture() -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let labels = vec![0u32; 10];
        let mut old = vec![0u32; 10];
        old[8] = 1;
        old[9] = 1;
        let mut new = vec![0u32; 10];
        new[9] = 1;
        (labels, old, new)
    }

    /// Measure a one-clause condition over `range` and return its value.
    fn value(m: &mut Measurement<'_>, text: &str, range: Range<usize>) -> f64 {
        let clause = parse_clause(text).unwrap();
        let formula = Formula::new(vec![clause.clone()]);
        let (counts, _) = m.counts(&formula, range).unwrap();
        counts.clause_value(&clause).unwrap()
    }

    #[test]
    fn difference_needs_no_labels() {
        let (_, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        assert!((value(&mut m, "d < 0.2 +/- 0.05", 0..10) - 0.1).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 0);
    }

    #[test]
    fn accuracy_labels_everything_in_range() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        assert!((value(&mut m, "n > 0.5 +/- 0.1", 0..10) - 0.9).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 10);
        // Old accuracy reuses the cached labels.
        assert!((value(&mut m, "o > 0.5 +/- 0.1", 0..10) - 0.8).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 10);
    }

    #[test]
    fn difference_trick_labels_only_disagreements() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        let diff = value(&mut m, "n - o > 0.0 +/- 0.05", 0..10);
        assert!((diff - 0.1).abs() < 1e-12, "diff = {diff}");
        assert_eq!(m.labels_requested(), 1, "only item 8 disagrees");
    }

    #[test]
    fn clause_lhs_picks_cheapest_strategy() {
        let (labels, old, new) = fixture();
        // (clause, value, labels): d-only is free, n - o and its scaled
        // form label the disagreement only, bare n labels everything.
        for (text, want, spent) in [
            ("d < 0.2 +/- 0.05", 0.1, 0),
            ("n - o > 0.0 +/- 0.05", 0.1, 1),
            ("2 * (n - o) > 0.0 +/- 0.05", 0.2, 1),
            ("n > 0.5 +/- 0.1", 0.9, 10),
        ] {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            assert!((value(&mut m, text, 0..10) - want).abs() < 1e-12, "{text}");
            assert_eq!(m.labels_requested(), spent, "{text}");
        }
    }

    #[test]
    fn mixed_expression_with_d() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        // 0.1 + 0.1 = 0.2; still only one label (difference trick + free d).
        assert!((value(&mut m, "n - o + d > 0.0 +/- 0.05", 0..10) - 0.2).abs() < 1e-12);
        assert_eq!(m.labels_requested(), 1);
    }

    #[test]
    fn label_demand_classification() {
        let demand = |text: &str| formula_label_demand(&parse_formula(text).unwrap());
        assert_eq!(demand("d < 0.2 +/- 0.05"), LabelDemand::Free);
        assert_eq!(demand("n - o > 0.0 +/- 0.05"), LabelDemand::Disagreements);
        assert_eq!(
            demand("2 * (n - o) > 0.0 +/- 0.05"),
            LabelDemand::Disagreements
        );
        assert_eq!(
            demand("n - o > 0.0 +/- 0.05 /\\ d < 0.2 +/- 0.05"),
            LabelDemand::Disagreements
        );
        assert_eq!(demand("n > 0.5 +/- 0.1"), LabelDemand::Full);
        assert_eq!(demand("n - 1.1 * o > 0.0 +/- 0.1"), LabelDemand::Full);
        assert_eq!(
            demand("n - o > 0.0 +/- 0.05 /\\ o > 0.5 +/- 0.1"),
            LabelDemand::Full
        );
        // The empty formula reads nothing.
        assert_eq!(
            formula_label_demand(&Formula::new(Vec::new())),
            LabelDemand::Free
        );
    }

    #[test]
    fn derive_counts_spends_only_what_the_formula_demands() {
        let (labels, old, new) = fixture();
        let counts = |m: &mut Measurement<'_>, text: &str| {
            m.counts(&parse_formula(text).unwrap(), 0..10).unwrap().0
        };
        // d-only: zero labels, exact `changed`; unknown items credit both.
        {
            let mut testset = Testset::unlabeled(10);
            let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
            let c = counts(&mut m, "d < 0.2 +/- 0.05");
            assert_eq!((c.samples, c.changed, c.labels_spent), (10, 1, 0));
            assert_eq!((c.new_correct, c.old_correct), (10, 10));
        }
        // n - o: only the single disagreement is labelled, and the
        // difference of the counts is the exact accuracy difference.
        {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let c = counts(&mut m, "n - o > 0.0 +/- 0.05");
            assert_eq!(c.labels_spent, 1, "only item 8 disagrees");
            assert_eq!(c.new_correct as i64 - c.old_correct as i64, 1);
            assert_eq!(c.changed, 1);
            assert_eq!(testset.labeled_count(), 1);
        }
        // Bare n: full labelling, exact confusion counts.
        {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let c = counts(&mut m, "n > 0.5 +/- 0.1");
            assert_eq!(c.labels_spent, 10);
            assert_eq!((c.new_correct, c.old_correct, c.changed), (9, 8, 1));
        }
        // Fully labelled pool: counts are the true confusion counts and
        // nothing is spent, whatever the demand.
        {
            let mut testset = Testset::fully_labeled(labels);
            let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
            let c = counts(&mut m, "d < 0.2 +/- 0.05");
            assert_eq!((c.new_correct, c.old_correct, c.labels_spent), (9, 8, 0));
        }
    }

    #[test]
    fn derived_counts_reproduce_clause_lhs() {
        // The equivalence the serving gate rests on: evaluating a clause
        // at the counts' point estimates gives the value the engine
        // computes from the same counts.
        let (labels, old, new) = fixture();
        for text in [
            "d < 0.2 +/- 0.05",
            "n - o > 0.0 +/- 0.05",
            "n - o + d > 0.0 +/- 0.05",
            "n > 0.5 +/- 0.1 /\\ d < 0.2 +/- 0.05",
        ] {
            let formula = parse_formula(text).unwrap();
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
            let (c, _) = m.counts(&formula, 0..10).unwrap();
            let s = c.samples as f64;
            let est = crate::eval::VariableEstimates::new(
                c.new_correct as f64 / s,
                c.old_correct as f64 / s,
                c.changed as f64 / s,
            );
            for clause in formula.clauses() {
                let lhs = c.clause_value(clause).unwrap();
                let from_estimates = est.evaluate_expr(&clause.expr);
                assert!(
                    (lhs - from_estimates).abs() < 1e-12,
                    "{text}: clause `{clause}` measured {lhs} vs estimates {from_estimates}"
                );
            }
        }
    }

    #[test]
    fn clause_values_keep_the_integer_arithmetic() {
        // `n - o` is the integer difference over the sample count, not a
        // difference of two rounded accuracies: 9/10 - 8/10 ≠ 1/10 in
        // floating point, and receipts carry the latter.
        let c = MeasuredCounts {
            samples: 10,
            new_correct: 9,
            old_correct: 8,
            changed: 1,
            labels_spent: 0,
        };
        let value = |text: &str| c.clause_value(&parse_clause(text).unwrap()).unwrap();
        assert_eq!(value("n - o > 0.0 +/- 0.05"), 0.1);
        assert_eq!(value("2 * (n - o) > 0.0 +/- 0.05"), 2.0 * 0.1);
        assert_eq!(value("n - o + d > 0.0 +/- 0.05"), 0.1 + 0.1);
        assert_eq!(value("n - 1.1 * o > 0.0 +/- 0.1"), 0.9 + -1.1 * 0.8);
        // An empty range divides by one, not zero.
        let empty = MeasuredCounts { samples: 0, ..c };
        assert!(empty
            .clause_value(&parse_clause("d < 0.2 +/- 0.05").unwrap())
            .unwrap()
            .is_finite());
    }

    #[test]
    fn derive_counts_without_needed_oracle_fails() {
        let (_, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        assert!(m
            .counts(&parse_formula("n > 0.5 +/- 0.1").unwrap(), 0..10)
            .is_err());
    }

    /// Deterministic xorshift generator for the packed-vs-per-item sweeps.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x % bound
        }
    }

    /// Measure each formula over random whole pools twice — once with
    /// packed truth (the packed kernel serves it) and once without (the
    /// per-item kernel serves it) — and require identical counts, label
    /// pool and oracle spend. Class counts are drawn from
    /// `min_classes..min_classes + spread`.
    fn assert_lanes_agree(formulas: &[&str], seed: u64, min_classes: u32, spread: u64) {
        let mut rng = Rng(seed);
        for trial in 0..40 {
            let len = 1 + rng.below(130) as usize; // crosses word boundaries
            let classes = min_classes + rng.below(spread) as u32;
            let draw = |rng: &mut Rng| -> Vec<u32> {
                (0..len)
                    .map(|_| rng.below(u64::from(classes)) as u32)
                    .collect()
            };
            let (truth, old, new) = (draw(&mut rng), draw(&mut rng), draw(&mut rng));
            // Random partial pre-labelling (always consistent with truth).
            let prelabeled: Vec<usize> = (0..len).filter(|_| rng.below(4) == 0).collect();
            let truth_bits = ClassBitmaps::from_labels(&truth, classes).unwrap();
            for text in formulas {
                let formula = parse_formula(text).unwrap();
                let mut item_pool = Testset::unlabeled(len);
                for &i in &prelabeled {
                    item_pool.set_label(i, truth[i]);
                }
                let mut packed_pool = item_pool.clone();
                let mut item_oracle = VecOracle::new(truth.clone());
                let mut packed_oracle = VecOracle::new(truth.clone());
                let per_item = Measurement::new(&mut item_pool, Some(&mut item_oracle), &old, &new)
                    .unwrap()
                    .with_classes(classes, None)
                    .counts(&formula, 0..len)
                    .unwrap();
                let mut m =
                    Measurement::new(&mut packed_pool, Some(&mut packed_oracle), &old, &new)
                        .unwrap()
                        .with_classes(classes, Some(&truth_bits));
                assert!(m.packed_inputs(&(0..len)).is_some(), "packed lane serves");
                let packed = m.counts(&formula, 0..len).unwrap();
                assert_eq!(packed, per_item, "trial {trial} formula {text}");
                assert_eq!(
                    packed_pool, item_pool,
                    "label pools diverged: trial {trial} formula {text}"
                );
                assert_eq!(
                    packed_oracle.labels_served(),
                    item_oracle.labels_served(),
                    "oracle spend diverged: trial {trial} formula {text}"
                );
            }
        }
    }

    #[test]
    fn packed_derive_counts_is_bit_identical_to_per_item_path() {
        // Every LabelDemand shape, as the serving layer classifies them:
        // d-only (Free), pure difference (Disagreements, alone and in a
        // conjunction with d), and individual accuracy (Full).
        assert_lanes_agree(
            &[
                "d < 0.5 +/- 0.1",
                "n - o > 0.0 +/- 0.1",
                "n - o > 0.0 +/- 0.1 /\\ d < 0.5 +/- 0.1",
                "n > 0.5 +/- 0.1",
            ],
            0x2447_1339_ace1_d00d,
            1,
            7,
        );
    }

    #[test]
    fn packed_metric_derivation_is_bit_identical_to_per_item_path() {
        // ≥ 3 classes so every k fits.
        assert_lanes_agree(
            &[
                "f1(n) - f1(o) > -0.02 +/- 0.01",
                "topk(n, 3) - topk(o, 3) > 0.0 +/- 0.1",
                "f1(n) > 0.5 +/- 0.1 /\\ d < 0.5 +/- 0.1",
                "f1(n) - f1(o) + topk(n, 2) - topk(o, 2) > -0.1 +/- 0.05",
            ],
            0x5eed_f00d_2468_ace2,
            3,
            5,
        );
    }

    #[test]
    fn packed_derive_counts_falls_back_and_errors_like_scalar() {
        let (_, old, new) = fixture();
        let formula = parse_formula("n > 0.5 +/- 0.1").unwrap();
        // Missing oracle under Full demand errors exactly like the
        // per-item kernel (ascending order ⇒ same first failing item).
        let truth_bits = ClassBitmaps::from_labels(&[0u32; 10], 2).unwrap();
        let mut pool = Testset::unlabeled(10);
        let mut m = Measurement::new(&mut pool, None, &old, &new)
            .unwrap()
            .with_classes(2, Some(&truth_bits));
        assert!(m.counts(&formula, 0..10).is_err());
        // A truth packing that does not cover the pool falls back to the
        // per-item kernel rather than mis-counting.
        let short = ClassBitmaps::from_labels(&[0u32; 4], 2).unwrap();
        let mut pool = Testset::fully_labeled(vec![0u32; 10]);
        let mut m = Measurement::new(&mut pool, None, &old, &new)
            .unwrap()
            .with_classes(2, Some(&short));
        let (c, _) = m.counts(&formula, 0..10).unwrap();
        assert_eq!((c.new_correct, c.old_correct), (9, 8));
        // Class counts outside the packable range refuse to pack.
        assert!(ClassBitmaps::from_labels(&[0], 0).is_none());
        assert!(ClassBitmaps::from_labels(&[0], 65).is_none());
        assert!(ClassBitmaps::from_labels(&[7], 4).is_none());
        assert!(ClassBitmaps::from_labels(&[63], 64).is_some());
    }

    #[test]
    fn metric_clauses_demand_full_labelling() {
        let demand = |text: &str| formula_label_demand(&parse_formula(text).unwrap());
        // Pure metric clauses have zero n/o coefficients; without the
        // metric branch they would misclassify as Free.
        assert_eq!(demand("f1(n) > 0.8 +/- 0.05"), LabelDemand::Full);
        assert_eq!(demand("f1(n) - f1(o) > -0.02 +/- 0.01"), LabelDemand::Full);
        assert_eq!(
            demand("topk(n, 3) - topk(o, 3) > 0.0 +/- 0.1"),
            LabelDemand::Full
        );
        assert_eq!(
            demand("f1(n) - f1(o) > -0.02 +/- 0.01 /\\ d < 0.1 +/- 0.05"),
            LabelDemand::Full
        );
    }

    #[test]
    fn scalar_count_paths_reject_metric_formulas_loudly() {
        let (labels, old, new) = fixture();
        let formula = parse_formula("f1(n) - f1(o) > -0.02 +/- 0.01").unwrap();
        let mut testset = Testset::fully_labeled(labels);
        let mut m = Measurement::new(&mut testset, None, &old, &new).unwrap();
        let (plain, _) = m
            .counts(&parse_formula("n > 0.5 +/- 0.1").unwrap(), 0..10)
            .unwrap();
        for err in [
            m.counts(&formula, 0..10).unwrap_err(),
            plain
                .clause_value(&parse_clause("f1(n) > 0.8 +/- 0.05").unwrap())
                .unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(
                msg.contains("metric"),
                "error not loud about metrics: {msg}"
            );
        }
    }

    #[test]
    fn validate_metric_formula_rejects_impossible_testsets() {
        let f = |text: &str| parse_formula(text).unwrap();
        // Plain formulas pass at any class count.
        validate_metric_formula(&f("n - o > 0.0 +/- 0.05"), 1).unwrap();
        // F1 needs a positive class.
        let err = validate_metric_formula(&f("f1(n) > 0.8 +/- 0.05"), 1).unwrap_err();
        assert!(err.to_string().contains("at least 2 classes"));
        validate_metric_formula(&f("f1(n) > 0.8 +/- 0.05"), 2).unwrap();
        // topk cannot outrun the class count.
        let err = validate_metric_formula(&f("topk(n, 5) > 0.8 +/- 0.05"), 3).unwrap_err();
        assert!(err.to_string().contains("topk(5)"));
        validate_metric_formula(&f("topk(n, 5) > 0.8 +/- 0.05"), 5).unwrap();
        // More distinct ks than estimate slots.
        let wide =
            f("topk(n, 1) + topk(n, 2) + topk(n, 3) + topk(n, 4) + topk(n, 5) > 0.0 +/- 0.1");
        let err = validate_metric_formula(&wide, 8).unwrap_err();
        assert!(err.to_string().contains("distinct topk"));
    }

    #[test]
    fn per_class_counts_match_reference_statistics() {
        use crate::extensions::f1_score;
        // 8 items, 3 classes. Truth: [0,0,0,1,1,2,2,2].
        let truth = vec![0u32, 0, 0, 1, 1, 2, 2, 2];
        let old = vec![0u32, 1, 0, 1, 0, 2, 0, 2];
        let new = vec![0u32, 0, 1, 1, 1, 2, 2, 1];
        let formula =
            parse_formula("f1(n) - f1(o) > -0.5 +/- 0.1 /\\ topk(n, 2) > 0.0 +/- 0.1").unwrap();
        let mut testset = Testset::unlabeled(8);
        let mut oracle = VecOracle::new(truth.clone());
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new)
            .unwrap()
            .with_classes(3, None);
        let (counts, per_class) = m.counts(&formula, 0..8).unwrap();
        let pc = per_class.expect("metric formula tallies per-class counts");
        assert_eq!(counts.labels_spent, 8, "metric demand labels everything");
        assert_eq!(pc.labeled(), counts.samples);
        assert_eq!(pc.support, vec![3, 2, 3]);
        // F1 agrees with the reference implementation on both models.
        assert_eq!(pc.f1(true), f1_score(&new, &truth, 1));
        assert_eq!(pc.f1(false), f1_score(&old, &truth, 1));
        // Top-2 classes by support: 0 and 2 (tie at 3 beats class 1's 2).
        assert_eq!(pc.top_classes(2), vec![0, 2]);
        // topk(n, 2): items with true class in {0, 2}: indices 0..3 and
        // 5..8; new is right on 0, 1, 5, 6 → 4/6.
        assert!((pc.topk(true, 2) - 4.0 / 6.0).abs() < 1e-12);
        // Estimates populate and evaluate.
        let mut est = VariableEstimates::new(0.0, 0.0, 0.0);
        pc.populate_estimates(&formula, &mut est).unwrap();
        let lhs = est.evaluate_expr(&formula.clauses()[0].expr);
        assert!((lhs - (f1_score(&new, &truth, 1) - f1_score(&old, &truth, 1))).abs() < 1e-12);
    }

    #[test]
    fn per_class_counts_edge_conventions() {
        // Zero true positives → F1 = 0 (reference convention), and an
        // unsupported top-k restriction → 0 rather than NaN.
        let mut pc = PerClassCounts::zeroed(3);
        assert_eq!(pc.f1(true), 0.0);
        assert_eq!(pc.topk(true, 2), 0.0);
        // Ties in support break towards the lower class id.
        pc.support = vec![2, 2, 2];
        assert_eq!(pc.top_classes(2), vec![0, 1]);
    }

    #[test]
    fn derive_counts_with_classes_rejects_out_of_range_values() {
        let formula = parse_formula("f1(n) > 0.5 +/- 0.1").unwrap();
        // Label 2 exceeds the declared 2 classes; then a prediction out
        // of range is equally loud.
        for (truth, old, new) in [
            (vec![0u32, 1, 2], vec![0u32, 1, 1], vec![0u32, 1, 1]),
            (vec![0u32, 1, 1], vec![0u32, 1, 1], vec![0u32, 1, 7]),
        ] {
            let mut testset = Testset::unlabeled(3);
            let mut oracle = VecOracle::new(truth);
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new)
                .unwrap()
                .with_classes(2, None);
            let err = m.counts(&formula, 0..3).unwrap_err();
            assert!(err.to_string().contains("class range"), "{err}");
        }
    }

    #[test]
    fn with_classes_paths_delegate_for_plain_formulas() {
        let (labels, old, new) = fixture();
        let formula = parse_formula("n - o > 0.0 +/- 0.05").unwrap();
        let truth_bits = ClassBitmaps::from_labels(&labels, 2).unwrap();
        let mut outcomes = Vec::new();
        for truth in [None, Some(&truth_bits)] {
            let mut testset = Testset::unlabeled(10);
            let mut oracle = VecOracle::new(labels.clone());
            let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new)
                .unwrap()
                .with_classes(2, truth);
            let (counts, pc) = m.counts(&formula, 0..10).unwrap();
            assert!(pc.is_none(), "plain formulas carry no per-class counts");
            assert_eq!(counts.labels_spent, 1);
            outcomes.push(counts);
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn rejects_mismatched_predictions() {
        let (_, old, _) = fixture();
        let mut testset = Testset::unlabeled(10);
        let short = vec![0u32; 5];
        assert!(Measurement::new(&mut testset, None, &old, &short).is_err());
        let mut testset2 = Testset::unlabeled(10);
        assert!(Measurement::new(&mut testset2, None, &short, &old).is_err());
    }

    #[test]
    fn subrange_measurement() {
        let (labels, old, new) = fixture();
        let mut testset = Testset::unlabeled(10);
        let mut oracle = VecOracle::new(labels);
        let mut m = Measurement::new(&mut testset, Some(&mut oracle), &old, &new).unwrap();
        // Range 0..8 excludes both wrong predictions: perfect agreement.
        assert_eq!(value(&mut m, "d < 0.2 +/- 0.05", 0..8), 0.0);
        assert_eq!(value(&mut m, "n - o > 0.0 +/- 0.05", 0..8), 0.0);
        assert_eq!(m.labels_requested(), 0);
        // Range 8..10: old wrong on both, new wrong on one.
        assert!((value(&mut m, "n > 0.5 +/- 0.1", 8..10) - 0.5).abs() < 1e-12);
        assert_eq!(value(&mut m, "o > 0.5 +/- 0.1", 8..10), 0.0);
    }
}
