//! Pluggable invariant checkers evaluated at round boundaries.
//!
//! Each step, after both protocol rounds close, the engine hands every
//! registered [`InvariantChecker`] a [`RoundContext`] snapshot. A checker
//! returns `Err(message)` to flag a violation; violations are recorded in
//! the step's report rather than aborting the run, because adversarial
//! scenarios exist precisely to make a checker fire.
//!
//! Built-ins:
//!
//! * [`MailboxConservation`] — servers must neither lose nor invent onions:
//!   `final_messages == client_messages + total_noise` for both protocols.
//!   A dropping mixer breaks the lower side, a replaying mixer the upper.
//! * [`SubmissionAccounting`] — the coordinator's accepted-submission count
//!   must equal the engine's count of successful participations; retries
//!   and duplicate-injection must never inflate it.
//! * [`LedgerConsistency`] — the coordinator's persistent round counter
//!   tracks the timeline exactly (`next_round == step + 1`, including
//!   across crash-restarts), and when rate limiting is on the step's two
//!   rounds spend exactly one token per successful submission — a token is
//!   never spent twice, and a retry spends none.
//! * [`TwinChecker`] — steps a fault-free twin of the scenario in lockstep
//!   and requires the faulty run's client event stream for the step to be
//!   identical to the twin's (event-stream convergence).

use alpenhorn::ClientEvent;
use alpenhorn_wire::rpc::RoundStatsWire;
use alpenhorn_wire::Round;

use crate::engine::{EngineError, ScenarioEngine};
use crate::script::Scenario;

/// A violation one checker reported for one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The reporting checker's name.
    pub checker: &'static str,
    /// What went wrong.
    pub message: String,
}

/// The engine's snapshot of one completed step, handed to checkers.
pub struct RoundContext<'a> {
    /// The step (and round number) just executed.
    pub step: u64,
    /// The round number, `Round(step)`.
    pub round: Round,
    /// Registered, awake clients scheduled this step.
    pub participants: usize,
    /// Add-friend participations that failed inside a fault window.
    pub missed_add_friend: usize,
    /// Dialing participations that failed inside a fault window.
    pub missed_dialing: usize,
    /// Server-reported add-friend round statistics.
    pub add_friend: RoundStatsWire,
    /// Server-reported dialing round statistics.
    pub dialing: RoundStatsWire,
    /// Rate-limit tokens spent into the step's two rounds (`None` when rate
    /// limiting is off).
    pub spent_tokens: Option<usize>,
    /// The coordinator's persistent round counter after the step.
    pub next_round: Round,
    /// `(population index, events)` emitted this step, participation order,
    /// non-empty entries only.
    pub step_events: &'a [(usize, Vec<ClientEvent>)],
}

/// A property evaluated at every step boundary; see the module docs.
pub trait InvariantChecker {
    /// Stable name used in violation reports.
    fn name(&self) -> &'static str;
    /// Checks the property over the just-completed step.
    fn check(&mut self, ctx: &RoundContext<'_>) -> Result<(), String>;
}

/// Mailbox conservation: see the module docs.
#[derive(Debug, Default)]
pub struct MailboxConservation;

impl InvariantChecker for MailboxConservation {
    fn name(&self) -> &'static str {
        "mailbox-conservation"
    }

    fn check(&mut self, ctx: &RoundContext<'_>) -> Result<(), String> {
        for (protocol, stats) in [("add-friend", &ctx.add_friend), ("dialing", &ctx.dialing)] {
            let expected = stats.client_messages + stats.total_noise;
            if stats.final_messages != expected {
                return Err(format!(
                    "{protocol} round {}: {} messages left the last mixer but {} client + {} noise entered",
                    ctx.round.as_u64(),
                    stats.final_messages,
                    stats.client_messages,
                    stats.total_noise,
                ));
            }
        }
        Ok(())
    }
}

/// Submission accounting: see the module docs.
#[derive(Debug, Default)]
pub struct SubmissionAccounting;

impl InvariantChecker for SubmissionAccounting {
    fn name(&self) -> &'static str {
        "submission-accounting"
    }

    fn check(&mut self, ctx: &RoundContext<'_>) -> Result<(), String> {
        let af_expected = (ctx.participants - ctx.missed_add_friend) as u64;
        if ctx.add_friend.client_messages != af_expected {
            return Err(format!(
                "add-friend round {}: coordinator accepted {} submissions, engine drove {}",
                ctx.round.as_u64(),
                ctx.add_friend.client_messages,
                af_expected,
            ));
        }
        let dial_expected = (ctx.participants - ctx.missed_dialing) as u64;
        if ctx.dialing.client_messages != dial_expected {
            return Err(format!(
                "dialing round {}: coordinator accepted {} submissions, engine drove {}",
                ctx.round.as_u64(),
                ctx.dialing.client_messages,
                dial_expected,
            ));
        }
        Ok(())
    }
}

/// Ledger consistency and no-double-spend: see the module docs.
#[derive(Debug, Default)]
pub struct LedgerConsistency;

impl InvariantChecker for LedgerConsistency {
    fn name(&self) -> &'static str {
        "ledger-consistency"
    }

    fn check(&mut self, ctx: &RoundContext<'_>) -> Result<(), String> {
        if ctx.next_round != Round(ctx.step + 1) {
            return Err(format!(
                "after step {} the coordinator's next round is {}, expected {}",
                ctx.step,
                ctx.next_round.as_u64(),
                ctx.step + 1,
            ));
        }
        if let Some(spent) = ctx.spent_tokens {
            let submissions = (ctx.participants - ctx.missed_add_friend)
                + (ctx.participants - ctx.missed_dialing);
            if spent != submissions {
                return Err(format!(
                    "step {}: {} tokens spent for {} accepted submissions — a token was reused or minted",
                    ctx.step, spent, submissions,
                ));
            }
        }
        Ok(())
    }
}

/// Event-stream convergence against a fault-free twin: see the module docs.
///
/// Owns a second [`ScenarioEngine`] running
/// [`Scenario::fault_free_twin`] with the same seed and steps it in
/// lockstep from `check`. Any divergence — an event a surviving client saw
/// in one run but not the other, or differing coordinator round counters —
/// is a violation.
pub struct TwinChecker {
    twin: ScenarioEngine,
}

impl TwinChecker {
    /// Builds the fault-free twin engine for `scenario`.
    pub fn new(scenario: &Scenario) -> Result<Self, EngineError> {
        Ok(TwinChecker {
            twin: ScenarioEngine::new(scenario.fault_free_twin())?,
        })
    }

    /// Read access to the twin engine (for end-of-run ledger comparisons).
    pub fn twin(&self) -> &ScenarioEngine {
        &self.twin
    }
}

impl InvariantChecker for TwinChecker {
    fn name(&self) -> &'static str {
        "twin-convergence"
    }

    fn check(&mut self, ctx: &RoundContext<'_>) -> Result<(), String> {
        self.twin
            .step()
            .map_err(|e| format!("fault-free twin failed to step: {e}"))?;
        let twin_events = self.twin.last_step_events();
        if twin_events != ctx.step_events {
            let ours: Vec<usize> = ctx.step_events.iter().map(|(i, _)| *i).collect();
            let twins: Vec<usize> = twin_events.iter().map(|(i, _)| *i).collect();
            return Err(format!(
                "step {}: event streams diverged from the fault-free twin (clients with events: {ours:?} vs twin {twins:?})",
                ctx.step,
            ));
        }
        let twin_next = self
            .twin
            .rounds()
            .last()
            .map(|r| r.next_round)
            .unwrap_or(Round(0));
        if twin_next != ctx.next_round {
            return Err(format!(
                "step {}: coordinator round counter {} diverged from twin {}",
                ctx.step,
                ctx.next_round.as_u64(),
                twin_next.as_u64(),
            ));
        }
        Ok(())
    }
}
