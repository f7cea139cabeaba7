//! Fault schedule, retry policy, and speculative execution.
//!
//! The paper's comparison leans on how cube algorithms behave when a real
//! cluster misbehaves — skewed reducers stall rounds, Hive's reducers run
//! out of memory at high skew, MRCube recovers from runtime skew by
//! re-running cuboids. This module supplies the engine's model of that
//! misbehaviour:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of injected faults:
//!   per-attempt task failures, stragglers, and whole-machine losses
//!   ([`MachineFailure`]) at a chosen phase of a chosen job. All draws are
//!   hashes of `(seed, job, phase, task, attempt)`, so a schedule replays
//!   identically regardless of host threading.
//! * [`RetryPolicy`] — how many attempts a task gets and what each failed
//!   attempt costs in simulated backoff seconds. Exhausting the budget
//!   aborts the job with a typed [`Error::JobFailed`].
//! * [`SpeculationConfig`] — Hadoop-style speculative execution: a task
//!   running slower than `slack ×` the phase's median task time gets a
//!   backup attempt; the earlier finisher wins and the loser's time is
//!   recorded as wasted work.
//!
//! Machine-loss semantics follow Hadoop: a machine that dies takes its
//! *completed map outputs* with it (they live on local disk), so its map
//! tasks re-execute on a surviving machine; a death during the reduce
//! phase additionally kills the in-flight reduce task, which is
//! rescheduled after the lost map output is regenerated. The engine
//! (`engine.rs`) really re-executes the map closure and replaces the lost
//! output — recovery is observable end to end, not just a time charge.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use spcube_common::{Error, Result};
use spcube_obs::{FlightLabel, FlightName};

use crate::engine::RoundTrace;

/// Phase of a MapReduce round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The map phase (input splits → partitioned intermediate pairs).
    Map,
    /// The reduce phase (grouped pairs → outputs).
    Reduce,
}

impl Phase {
    /// Lower-case name, as used in error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

/// One scheduled machine loss: machine `machine` dies during `phase` of
/// every job whose name contains `job` (or of every job when `job` is
/// `None`).
#[derive(Debug, Clone)]
pub struct MachineFailure {
    /// Job-name substring this loss applies to; `None` matches all jobs.
    pub job: Option<String>,
    /// Phase during which the machine dies.
    pub phase: Phase,
    /// Index of the machine that dies.
    pub machine: usize,
}

/// Deterministic, seeded schedule of faults injected into job execution.
///
/// The default plan injects nothing. Probabilities are validated by
/// [`FaultPlan::validate`] (called from `ClusterConfig::validate` before
/// every job) rather than asserted, so a bad configuration surfaces as a
/// typed [`Error::Config`] in release builds too.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed mixed into every pseudo-random draw.
    pub seed: u64,
    /// Probability that a given task attempt fails and is retried.
    pub task_failure_prob: f64,
    /// Probability that a given task straggles.
    pub straggler_prob: f64,
    /// Multiplier on a straggling task's simulated time (`>= 1.0`; `1.0`
    /// disables straggling).
    pub straggler_factor: f64,
    /// Simulated seconds until a dead machine is detected (heartbeat
    /// timeout) and its work is rescheduled.
    pub detection_s: f64,
    /// Scheduled whole-machine losses.
    pub machine_failures: Vec<MachineFailure>,
    /// When set, probabilistic injection (task failures and stragglers)
    /// applies only to jobs whose name contains this substring. Lets a
    /// test make one round of a multi-round algorithm flaky — e.g. fail
    /// the SP-Cube sketch round permanently while the cube round stays
    /// healthy.
    pub only_job: Option<String>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0x5eed,
            task_failure_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            detection_s: 5.0,
            machine_failures: Vec::new(),
            only_job: None,
        }
    }
}

fn check_prob(name: &str, p: f64) -> Result<()> {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return Err(Error::Config(format!(
            "{name} must be a probability in [0, 1], got {p}"
        )));
    }
    Ok(())
}

impl FaultPlan {
    /// Reject NaN/out-of-range probabilities, `straggler_factor < 1.0`,
    /// and negative detection times with [`Error::Config`].
    pub fn validate(&self) -> Result<()> {
        check_prob("task_failure_prob", self.task_failure_prob)?;
        check_prob("straggler_prob", self.straggler_prob)?;
        if self.straggler_factor.is_nan() || self.straggler_factor < 1.0 {
            return Err(Error::Config(format!(
                "straggler_factor must be >= 1.0, got {}",
                self.straggler_factor
            )));
        }
        if self.detection_s.is_nan() || self.detection_s < 0.0 {
            return Err(Error::Config(format!(
                "detection_s must be non-negative, got {}",
                self.detection_s
            )));
        }
        Ok(())
    }

    /// True when probabilistic injection applies to this job.
    fn applies_to(&self, job: &str) -> bool {
        self.only_job.as_deref().is_none_or(|s| job.contains(s))
    }

    /// Deterministic uniform draw in `[0, 1)` for a `(job, phase, task,
    /// attempt)` coordinate.
    fn unit(&self, tag: &str, job: &str, phase: Phase, task: usize, attempt: u32) -> f64 {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        tag.hash(&mut h);
        job.hash(&mut h);
        phase.hash(&mut h);
        task.hash(&mut h);
        attempt.hash(&mut h);
        (h.finish() % 1_000_000) as f64 / 1_000_000.0
    }

    /// Does attempt number `attempt` (1-based) of this task fail?
    pub fn attempt_fails(&self, job: &str, phase: Phase, task: usize, attempt: u32) -> bool {
        self.task_failure_prob > 0.0
            && self.applies_to(job)
            && self.unit("task-attempt", job, phase, task, attempt) < self.task_failure_prob
    }

    /// Is this task a straggler?
    pub fn is_straggler(&self, job: &str, phase: Phase, task: usize) -> bool {
        self.straggler_prob > 0.0
            && self.straggler_factor > 1.0
            && self.applies_to(job)
            && self.unit("straggler", job, phase, task, 0) < self.straggler_prob
    }

    /// Machines (indices `< machines`) scheduled to die during `phase` of
    /// `job`, deduplicated and sorted.
    pub fn lost_machines(&self, job: &str, phase: Phase, machines: usize) -> Vec<usize> {
        let mut lost: Vec<usize> = self
            .machine_failures
            .iter()
            .filter(|f| {
                f.phase == phase
                    && f.machine < machines
                    && f.job.as_deref().is_none_or(|s| job.contains(s))
            })
            .map(|f| f.machine)
            .collect();
        lost.sort_unstable();
        lost.dedup();
        lost
    }
}

/// Delay charged between a failed attempt and the next one. The type
/// lives in `spcube_common::retry` so the serving tier can share it; the
/// engine re-exports it here for compatibility.
pub use spcube_common::retry::Backoff;

/// How many attempts a task gets, and what failed attempts cost. Replaces
/// the engine's former hard-coded attempt loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per task before the whole job aborts with
    /// [`Error::JobFailed`] (Hadoop's `mapreduce.map.maxattempts`).
    pub max_attempts: u32,
    /// Simulated delay between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::Exponential {
                base_s: 1.0,
                factor: 2.0,
            },
        }
    }
}

impl RetryPolicy {
    /// Simulated seconds of backoff after failed attempt `attempt`
    /// (1-based). Delegates to [`Backoff::delay_after`].
    pub fn delay_after(&self, attempt: u32) -> f64 {
        self.backoff.delay_after(attempt)
    }

    /// Reject zero attempt budgets and negative/NaN delays.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::Config(
                "retry policy needs at least one attempt".into(),
            ));
        }
        self.backoff.validate()
    }
}

/// Speculative-execution policy: launch a backup attempt for tasks that
/// run slower than `slack ×` the phase's median task time, keep the
/// earlier finisher, and record the loser's time as wasted work.
#[derive(Debug, Clone)]
pub struct SpeculationConfig {
    /// Whether backups are launched at all (off by default, like the
    /// paper's Hadoop setup for measured runs).
    pub enabled: bool,
    /// Straggler slack: a backup launches once a task has run for
    /// `slack × median` seconds without finishing. Must be `>= 1.0`.
    pub slack: f64,
}

impl Default for SpeculationConfig {
    fn default() -> SpeculationConfig {
        SpeculationConfig {
            enabled: false,
            slack: 1.5,
        }
    }
}

impl SpeculationConfig {
    /// Reject NaN or sub-1.0 slack factors.
    pub fn validate(&self) -> Result<()> {
        if self.slack.is_nan() || self.slack < 1.0 {
            return Err(Error::Config(format!(
                "speculation slack must be >= 1.0, got {}",
                self.slack
            )));
        }
        Ok(())
    }
}

/// Recovery counters accumulated while executing one round; copied into
/// `JobMetrics` at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounters {
    /// Failed task attempts that were retried.
    pub task_retries: u64,
    /// Tasks (or completed task outputs) lost to machine failures.
    pub tasks_lost: u64,
    /// Tasks re-executed on another machine after a loss.
    pub re_executions: u64,
    /// Speculative backup attempts launched.
    pub speculative_launches: u64,
    /// Simulated seconds of discarded work: lost map outputs, killed
    /// attempts, and losing speculative twins.
    pub wasted_seconds: f64,
}

/// The unified fault path both phases run through: straggler slowdown,
/// retry/backoff accounting, and speculative backups, applied to a
/// phase's per-task base times.
pub(crate) struct PhaseFaults<'a> {
    pub plan: &'a FaultPlan,
    pub retry: &'a RetryPolicy,
    pub speculation: &'a SpeculationConfig,
    pub job: &'a str,
    /// The round's flight trace (`None` when obs is off). Retry and
    /// speculation events go under its open phase span, at the exact
    /// sites the matching `RecoveryCounters` fields increment, so trace
    /// event counts always equal the job's metrics.
    pub trace: Option<&'a RoundTrace<'a>>,
}

impl PhaseFaults<'_> {
    /// Charge faults against each task's fault-free `base` seconds.
    /// Returns per-task completion seconds; fails with
    /// [`Error::JobFailed`] when a task exhausts its retry budget.
    pub fn charge(
        &self,
        phase: Phase,
        base: &[f64],
        rec: &mut RecoveryCounters,
    ) -> Result<Vec<f64>> {
        // Attempt time per task: base, slowed for injected stragglers.
        let attempt_secs: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(t, &b)| {
                if self.plan.is_straggler(self.job, phase, t) {
                    b * self.plan.straggler_factor
                } else {
                    b
                }
            })
            .collect();
        let median = median(&attempt_secs);

        let mut times = Vec::with_capacity(base.len());
        for (t, &attempt_s) in attempt_secs.iter().enumerate() {
            let mut total = 0.0;
            let mut succeeded = false;
            for attempt in 1..=self.retry.max_attempts {
                if self.plan.attempt_fails(self.job, phase, t, attempt) {
                    rec.task_retries += 1;
                    if let Some(trace) = self.trace {
                        trace.event(FlightName::TaskRetry, FlightLabel::Task, t);
                    }
                    rec.wasted_seconds += attempt_s;
                    total += attempt_s + self.retry.delay_after(attempt);
                } else {
                    total += self.finish_attempt(t, attempt_s, base[t], median, rec);
                    succeeded = true;
                    break;
                }
            }
            if !succeeded {
                return Err(Error::JobFailed {
                    job: self.job.to_string(),
                    phase: phase.name().to_string(),
                    task: t,
                    attempts: self.retry.max_attempts,
                });
            }
            times.push(total);
        }
        Ok(times)
    }

    /// Completion time of a successful attempt, after speculative
    /// execution has had its say.
    fn finish_attempt(
        &self,
        task: usize,
        attempt_s: f64,
        base: f64,
        median: f64,
        rec: &mut RecoveryCounters,
    ) -> f64 {
        let spec = self.speculation;
        if !spec.enabled || median <= 0.0 || attempt_s <= spec.slack * median {
            return attempt_s;
        }
        // The backup launches once the task is `slack × median` late and
        // runs at healthy (non-straggler) speed on another machine.
        let backup_start = spec.slack * median;
        let backup_finish = backup_start + base;
        rec.speculative_launches += 1;
        if let Some(trace) = self.trace {
            trace.event(FlightName::TaskSpeculate, FlightLabel::Task, task);
        }
        if backup_finish < attempt_s {
            // Backup wins; the original is killed at the backup's finish.
            rec.wasted_seconds += backup_finish;
            backup_finish
        } else {
            // Original wins; the backup ran for nothing.
            rec.wasted_seconds += attempt_s - backup_start;
            attempt_s
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("task times are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for t in 0..50 {
            assert!(!plan.attempt_fails("job", Phase::Map, t, 1));
            assert!(!plan.is_straggler("job", Phase::Reduce, t));
        }
        assert!(plan.lost_machines("job", Phase::Map, 8).is_empty());
    }

    #[test]
    fn draws_are_deterministic_and_phase_scoped() {
        let plan = FaultPlan {
            task_failure_prob: 0.5,
            ..FaultPlan::default()
        };
        let map_draws: Vec<bool> = (0..64)
            .map(|t| plan.attempt_fails("j", Phase::Map, t, 1))
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|t| plan.attempt_fails("j", Phase::Map, t, 1))
            .collect();
        assert_eq!(map_draws, again);
        let reduce_draws: Vec<bool> = (0..64)
            .map(|t| plan.attempt_fails("j", Phase::Reduce, t, 1))
            .collect();
        assert_ne!(map_draws, reduce_draws, "phases draw independently");
        assert!(map_draws.iter().filter(|&&b| b).count() > 10);
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = FaultPlan {
            task_failure_prob: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan {
            task_failure_prob: 0.5,
            seed: 99,
            ..FaultPlan::default()
        };
        let da: Vec<bool> = (0..64)
            .map(|t| a.attempt_fails("j", Phase::Map, t, 1))
            .collect();
        let db: Vec<bool> = (0..64)
            .map(|t| b.attempt_fails("j", Phase::Map, t, 1))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn only_job_scopes_injection() {
        let plan = FaultPlan {
            task_failure_prob: 1.0,
            only_job: Some("sketch".into()),
            ..FaultPlan::default()
        };
        assert!(plan.attempt_fails("sp-sketch", Phase::Map, 0, 1));
        assert!(!plan.attempt_fails("sp-cube", Phase::Map, 0, 1));
    }

    #[test]
    fn lost_machines_filters_phase_job_and_range() {
        let plan = FaultPlan {
            machine_failures: vec![
                MachineFailure {
                    job: None,
                    phase: Phase::Map,
                    machine: 2,
                },
                MachineFailure {
                    job: None,
                    phase: Phase::Map,
                    machine: 2,
                },
                MachineFailure {
                    job: None,
                    phase: Phase::Reduce,
                    machine: 1,
                },
                MachineFailure {
                    job: Some("cube".into()),
                    phase: Phase::Map,
                    machine: 3,
                },
                MachineFailure {
                    job: None,
                    phase: Phase::Map,
                    machine: 99,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.lost_machines("sp-cube", Phase::Map, 8), vec![2, 3]);
        assert_eq!(plan.lost_machines("sp-sketch", Phase::Map, 8), vec![2]);
        assert_eq!(plan.lost_machines("sp-cube", Phase::Reduce, 8), vec![1]);
    }

    #[test]
    fn validation_rejects_bad_numbers() {
        let nan_prob = FaultPlan {
            task_failure_prob: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(nan_prob.validate().is_err());
        let neg_prob = FaultPlan {
            straggler_prob: -0.1,
            ..FaultPlan::default()
        };
        assert!(neg_prob.validate().is_err());
        let over_prob = FaultPlan {
            task_failure_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(over_prob.validate().is_err());
        let small_factor = FaultPlan {
            straggler_factor: 0.5,
            ..FaultPlan::default()
        };
        assert!(small_factor.validate().is_err());
        let neg_detect = FaultPlan {
            detection_s: -1.0,
            ..FaultPlan::default()
        };
        assert!(neg_detect.validate().is_err());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    fn retry_policy_backoff_schedules() {
        let none = RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::None,
        };
        assert_eq!(none.delay_after(1), 0.0);
        let fixed = RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::Fixed(2.5),
        };
        assert_eq!(fixed.delay_after(2), 2.5);
        let exp = RetryPolicy::default();
        assert_eq!(exp.delay_after(1), 1.0);
        assert_eq!(exp.delay_after(2), 2.0);
        assert_eq!(exp.delay_after(3), 4.0);
        assert!(RetryPolicy {
            max_attempts: 0,
            backoff: Backoff::None
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::Fixed(-1.0)
        }
        .validate()
        .is_err());
    }

    /// The untraced fault path of `job`.
    fn faults<'a>(
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        speculation: &'a SpeculationConfig,
        job: &'a str,
    ) -> PhaseFaults<'a> {
        PhaseFaults {
            plan,
            retry,
            speculation,
            job,
            trace: None,
        }
    }

    #[test]
    fn speculation_takes_the_earlier_finisher() {
        let plan = FaultPlan::default();
        let retry = RetryPolicy::default();
        let spec = SpeculationConfig {
            enabled: true,
            slack: 1.5,
        };
        let path = faults(&plan, &retry, &spec, "j");
        let mut rec = RecoveryCounters::default();
        // Four healthy 10 s tasks and one 100 s straggler (pre-slowed base):
        // the backup launches at 15 s and finishes at 15 + 100 s? No — base
        // here is already the task's own fault-free time, so the backup of
        // the 100 s task also needs 100 s and the original (100 s) wins.
        let base = [10.0, 10.0, 10.0, 10.0, 100.0];
        let times = path.charge(Phase::Map, &base, &mut rec).unwrap();
        assert_eq!(
            times[4], 100.0,
            "original finishes before its equally-slow backup"
        );
        assert_eq!(rec.speculative_launches, 1);
        assert!(rec.wasted_seconds > 0.0);
    }

    #[test]
    fn speculation_rescues_injected_stragglers() {
        // With straggling injected at prob 1.0 the attempt time is 10×
        // base, but the backup runs at base speed: completion is capped at
        // slack × median + base instead of 10 × base.
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_factor: 10.0,
            ..FaultPlan::default()
        };
        let retry = RetryPolicy::default();
        let spec = SpeculationConfig {
            enabled: true,
            slack: 1.5,
        };
        let path = faults(&plan, &retry, &spec, "j");
        let mut rec = RecoveryCounters::default();
        let base = [10.0, 10.0, 10.0];
        let times = path.charge(Phase::Map, &base, &mut rec).unwrap();
        // median attempt = 100, so no attempt exceeds 1.5 × median — all
        // straggle together and no backup launches.
        assert_eq!(rec.speculative_launches, 0);
        assert!(times.iter().all(|&t| (t - 100.0).abs() < 1e-9));

        // Mixed phase: only task 1 straggles (large seed search not needed;
        // craft via only_job trick is overkill — use explicit plan draws).
        let plan = FaultPlan {
            straggler_prob: 0.45,
            straggler_factor: 10.0,
            ..FaultPlan::default()
        };
        let path = faults(&plan, &retry, &spec, "j");
        let stragglers: Vec<usize> = (0..8)
            .filter(|&t| plan.is_straggler("j", Phase::Map, t))
            .collect();
        assert!(
            !stragglers.is_empty() && stragglers.len() < 8,
            "seeded draws give a mixed phase: {stragglers:?}"
        );
        let mut rec = RecoveryCounters::default();
        let base = [10.0; 8];
        let times = path.charge(Phase::Map, &base, &mut rec).unwrap();
        assert_eq!(rec.speculative_launches as usize, stragglers.len());
        for &t in &stragglers {
            assert_eq!(
                times[t],
                1.5 * 10.0 + 10.0,
                "backup wins: slack × median + base"
            );
        }
        assert!(rec.wasted_seconds > 0.0);
    }

    #[test]
    fn exhausted_retries_fail_typed() {
        let plan = FaultPlan {
            task_failure_prob: 1.0,
            ..FaultPlan::default()
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::None,
        };
        let spec = SpeculationConfig::default();
        let path = faults(&plan, &retry, &spec, "cube");
        let mut rec = RecoveryCounters::default();
        let err = path.charge(Phase::Reduce, &[1.0], &mut rec).unwrap_err();
        match err {
            Error::JobFailed {
                job,
                phase,
                task,
                attempts,
            } => {
                assert_eq!(job, "cube");
                assert_eq!(phase, "reduce");
                assert_eq!(task, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected JobFailed, got {other}"),
        }
    }

    #[test]
    fn backoff_is_charged_on_retries() {
        let plan = FaultPlan {
            task_failure_prob: 0.6,
            ..FaultPlan::default()
        };
        let no_backoff = RetryPolicy {
            max_attempts: 24,
            backoff: Backoff::None,
        };
        let with_backoff = RetryPolicy {
            max_attempts: 24,
            backoff: Backoff::Fixed(7.0),
        };
        let spec = SpeculationConfig::default();
        let base = vec![1.0; 32];

        let mut rec_a = RecoveryCounters::default();
        let a = faults(&plan, &no_backoff, &spec, "j")
            .charge(Phase::Map, &base, &mut rec_a)
            .unwrap();
        let mut rec_b = RecoveryCounters::default();
        let b = faults(&plan, &with_backoff, &spec, "j")
            .charge(Phase::Map, &base, &mut rec_b)
            .unwrap();
        assert_eq!(
            rec_a.task_retries, rec_b.task_retries,
            "same schedule, same retries"
        );
        assert!(rec_a.task_retries > 0);
        let (sum_a, sum_b) = (a.iter().sum::<f64>(), b.iter().sum::<f64>());
        let expected_extra = rec_a.task_retries as f64 * 7.0;
        assert!((sum_b - sum_a - expected_extra).abs() < 1e-9);
    }
}
