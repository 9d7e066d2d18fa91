//! The gate state machine of one testset era (§3): the step budget `H`,
//! the adaptivity policy's signal/acceptance rules, and the
//! new-testset alarm.
//!
//! [`crate::CiEngine`] and the serving layer's projects both hold a
//! [`Gate`]; neither re-implements the budget, adaptivity, or alarm
//! rules. The gate is `Copy`, so a copy taken before a mutation is the
//! mark a failed durability step rolls back to.

use super::history::HistoryEntry;
use super::sink::AlarmReason;
use crate::error::EngineError;
use easeml_bounds::Adaptivity;

/// Budget, era, and retirement state of one gated repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    steps: u32,
    adaptivity: Adaptivity,
    steps_used: u32,
    era: u32,
    retired: bool,
}

/// What one gated evaluation reports besides its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateStep {
    /// 1-based step within the era.
    pub step: u32,
    /// 0-based testset era.
    pub era: u32,
    /// Whether the commit lands in the repository.
    pub accepted: bool,
    /// The pass/fail bit as visible to the developer: `None` when the
    /// adaptivity policy withholds it.
    pub signal: Option<bool>,
    /// Alarm raised by this evaluation, if any.
    pub alarm: Option<AlarmReason>,
    /// Steps left in the era right after this evaluation (not collapsed
    /// to 0 by retirement).
    pub steps_remaining: u32,
}

impl Gate {
    /// A fresh gate in era 0 with a budget of `steps` evaluations.
    #[must_use]
    pub fn new(steps: u32, adaptivity: Adaptivity) -> Gate {
        Gate {
            steps,
            adaptivity,
            steps_used: 0,
            era: 0,
            retired: false,
        }
    }

    /// Overwrite the mutable state with values recorded elsewhere (a
    /// snapshot); the budget and policy stay as configured.
    pub fn restore(&mut self, steps_used: u32, era: u32, retired: bool) {
        self.steps_used = steps_used;
        self.era = era;
        self.retired = retired;
    }

    /// Whether the era can test another commit.
    ///
    /// # Errors
    ///
    /// [`EngineError::TestsetRetired`] after an alarm,
    /// [`EngineError::BudgetExhausted`] once every step is spent.
    pub fn check_open(&self) -> Result<(), EngineError> {
        if self.retired {
            return Err(EngineError::TestsetRetired);
        }
        if self.steps_used >= self.steps {
            return Err(EngineError::BudgetExhausted { steps: self.steps });
        }
        Ok(())
    }

    /// Spend one step on a commit whose final decision is `passed`.
    ///
    /// Repository acceptance is what the *developer* observes: with
    /// `adaptivity: none` every commit lands. The active (`o`) model only
    /// advances on a true pass, which is the caller's business. The alarm
    /// fires, and the era retires, on a pass under `firstChange` or when
    /// the budget runs out.
    pub fn advance(&mut self, passed: bool) -> GateStep {
        self.steps_used += 1;
        let alarm = if self.adaptivity.retires_on_pass() && passed {
            Some(AlarmReason::PassedInHybrid)
        } else if self.steps_used >= self.steps {
            Some(AlarmReason::BudgetExhausted)
        } else {
            None
        };
        self.retired |= alarm.is_some();
        GateStep {
            step: self.steps_used,
            era: self.era,
            accepted: match self.adaptivity {
                Adaptivity::None => true,
                Adaptivity::Full | Adaptivity::FirstChange => passed,
            },
            signal: self.adaptivity.releases_signal().then_some(passed),
            alarm,
            steps_remaining: self.steps - self.steps_used,
        }
    }

    /// Rebuild what [`Gate::advance`] returned for a recorded evaluation
    /// of the current era. `is_final` says whether `entry` is the era's
    /// latest evaluation: retirement can only have been triggered by
    /// that one, so only its step carried an alarm.
    #[must_use]
    pub fn replay(&self, entry: &HistoryEntry, is_final: bool) -> GateStep {
        let alarm = (self.retired && is_final).then(|| {
            if self.adaptivity.retires_on_pass() && entry.passed {
                AlarmReason::PassedInHybrid
            } else {
                AlarmReason::BudgetExhausted
            }
        });
        GateStep {
            step: entry.step,
            era: entry.era,
            accepted: entry.accepted,
            signal: self.adaptivity.releases_signal().then_some(entry.passed),
            alarm,
            steps_remaining: self.steps - entry.step,
        }
    }

    /// Start a new era with a full budget; returns the new era.
    pub fn fresh_era(&mut self) -> u32 {
        self.era += 1;
        self.steps_used = 0;
        self.retired = false;
        self.era
    }

    /// Steps consumed in the current era.
    #[must_use]
    pub fn steps_used(&self) -> u32 {
        self.steps_used
    }

    /// Steps remaining before the budget alarm (0 when retired).
    #[must_use]
    pub fn steps_remaining(&self) -> u32 {
        if self.retired {
            0
        } else {
            self.steps - self.steps_used
        }
    }

    /// Current testset era (0-based).
    #[must_use]
    pub fn era(&self) -> u32 {
        self.era
    }

    /// Whether the current era is retired (alarm fired).
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CommitEstimates;
    use crate::logic::Tribool;

    /// Every adaptivity mode × pass/fail sequences that run the budget
    /// out (or trip the `firstChange` alarm): at every step, replaying
    /// the recorded entry reproduces the live result exactly, alarm and
    /// steps_remaining included — both right after the step and once
    /// the era has moved on.
    #[test]
    fn replay_reproduces_every_live_step() {
        const H: u32 = 3;
        let sequences: [&[bool]; 5] = [
            &[false, false, false],
            &[true, true, true],
            &[false, true, false],
            &[true, false, false],
            &[false, false, true],
        ];
        for adaptivity in [Adaptivity::None, Adaptivity::Full, Adaptivity::FirstChange] {
            for sequence in sequences {
                let what = format!("{adaptivity:?} {sequence:?}");
                let mut gate = Gate::new(H, adaptivity);
                let mut recorded: Vec<(HistoryEntry, GateStep)> = Vec::new();
                for &passed in sequence {
                    if gate.check_open().is_err() {
                        break;
                    }
                    let live = gate.advance(passed);
                    let entry = HistoryEntry {
                        commit_id: format!("c{}", live.step),
                        step: live.step,
                        era: live.era,
                        estimates: CommitEstimates::default(),
                        outcome: Tribool::from(passed),
                        passed,
                        accepted: live.accepted,
                    };
                    assert_eq!(gate.replay(&entry, true), live, "{what} step {}", live.step);
                    assert_eq!(live.steps_remaining, H - live.step, "{what}");
                    assert_eq!(live.signal.is_none(), adaptivity == Adaptivity::None);
                    recorded.push((entry, live));
                }
                let last = recorded.len() - 1;
                for (i, (entry, live)) in recorded.iter().enumerate() {
                    assert_eq!(gate.replay(entry, i == last), *live, "{what} entry {i}");
                }
                // Whatever retired the era, it refuses further commits
                // until a fresh era, which restores the full budget.
                let hybrid_pass = adaptivity == Adaptivity::FirstChange && sequence.contains(&true);
                assert!(gate.is_retired(), "{what}");
                assert_eq!(gate.steps_remaining(), 0);
                assert_eq!(gate.check_open(), Err(EngineError::TestsetRetired));
                let alarm = recorded[last].1.alarm;
                if hybrid_pass {
                    assert_eq!(alarm, Some(AlarmReason::PassedInHybrid), "{what}");
                } else {
                    assert_eq!(alarm, Some(AlarmReason::BudgetExhausted), "{what}");
                }
                assert_eq!(gate.fresh_era(), 1);
                assert_eq!((gate.steps_used(), gate.steps_remaining()), (0, H));
                assert_eq!(gate.check_open(), Ok(()));
            }
        }
    }

    #[test]
    fn exhausted_but_unretired_state_reports_the_budget() {
        // A restored snapshot can hold a spent budget without the flag.
        let mut gate = Gate::new(2, Adaptivity::Full);
        gate.restore(2, 4, false);
        assert_eq!(
            gate.check_open(),
            Err(EngineError::BudgetExhausted { steps: 2 })
        );
        assert_eq!((gate.era(), gate.steps_remaining()), (4, 0));
    }
}
