//! Streaming detection latency: how far into an attack's trace the
//! online scorer ([`StreamSession`]) fires its early alarm, and what the
//! alarm policy's (τ, k) knobs trade against false alarms on benign
//! programs.
//!
//! The paper's pipeline is offline — the whole trace is modeled, then
//! classified. The streaming subsystem re-scores every committed prefix,
//! so an enrolled attack can be flagged after a few hundred instructions
//! instead of a full run. This experiment quantifies that:
//!
//! - **Detection latency** per attack family: mean instructions committed
//!   when the alarm fired, and the fraction of the full trace that took.
//! - **Policy sweep**: the same streams replayed under a grid of
//!   (threshold τ, sustain k) points, reporting detected fraction,
//!   latency, and benign false-alarm rate per point.
//!
//! Each program is streamed exactly **once**, recording the best
//! similarity score after every increment; every sweep point is then a
//! pure replay of the recorded score series through the alarm state
//! machine (streak of k consecutive scores ≥ τ), which is deterministic
//! and identical to what a live session with that policy would do —
//! [`tests::replay_matches_a_live_session`] pins that equivalence.

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{benign, AttackFamily, Sample};
use scaguard::{Detector, ModelError, ModelRepository, StreamConfig, StreamSession};

use crate::EvalConfig;

/// One streamed program: its best-score series and trace length.
#[derive(Debug, Clone)]
struct ScoreTrace {
    /// `Some(family)` for attack variants, `None` for benign programs.
    family: Option<AttackFamily>,
    /// `(committed instructions, best score)` after each increment.
    scores: Vec<(u64, f64)>,
    /// The whole trace's instruction count.
    total_steps: u64,
}

/// Detection latency of one attack family under the default policy.
#[derive(Debug, Clone)]
pub struct StreamingFamilyRow {
    /// The attack family.
    pub family: AttackFamily,
    /// Variants whose stream alarmed before the trace ended.
    pub detected: usize,
    /// Variants streamed.
    pub total: usize,
    /// Mean instructions committed at alarm time (detected variants).
    pub mean_steps_to_alarm: f64,
    /// Mean alarm position as a fraction of the full trace (detected
    /// variants): `0.1` means the alarm fired a tenth of the way in.
    pub mean_trace_fraction: f64,
    /// Mean full-trace length of the family's variants, for scale.
    pub mean_trace_steps: f64,
}

/// One (τ, k) point of the policy sweep.
#[derive(Debug, Clone)]
pub struct StreamingPoint {
    /// Alarm threshold τ.
    pub threshold: f64,
    /// Sustain count k.
    pub sustain: u32,
    /// Attack variants that alarmed.
    pub detected: usize,
    /// Attack variants streamed.
    pub attack_total: usize,
    /// Benign programs that alarmed (false alarms).
    pub false_alarms: usize,
    /// Benign programs streamed.
    pub benign_total: usize,
    /// Mean instructions to alarm over detected attacks.
    pub mean_steps_to_alarm: f64,
}

/// The full streaming evaluation: per-family latency at the default
/// policy plus the (τ, k) sweep.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Per-family detection latency at [`StreamConfig::default`].
    pub families: Vec<StreamingFamilyRow>,
    /// The policy sweep grid.
    pub sweep: Vec<StreamingPoint>,
}

/// Thresholds swept; includes the default τ
/// ([`StreamConfig::DEFAULT_THRESHOLD`]) and the detection threshold 0.20
/// below it, where benign prefixes are expected to trip transiently.
const SWEEP_THRESHOLDS: [f64; 5] = [0.20, 0.28, 0.35, 0.45, 0.60];

/// Sustain counts swept; includes the default k = 2.
const SWEEP_SUSTAINS: [u32; 3] = [1, 2, 3];

/// A detector over `repo` with a freshly built index attached.
fn indexed_detector(repo: ModelRepository, threshold: f64) -> Detector {
    let mut detector =
        Detector::new(repo, threshold).expect("the default detection threshold is in range");
    detector
        .set_index(detector.build_index())
        .expect("a freshly built index matches its repository");
    detector
}

/// Stream one program to the end of its trace, recording the best score
/// after every increment. The session's own alarm policy is disarmed
/// (τ = 1, k = max) so the recording is policy-neutral.
fn stream_scores(
    detector: &Detector,
    sample: &Sample,
    family: Option<AttackFamily>,
    cfg: &EvalConfig,
    increment: u64,
) -> Result<ScoreTrace, ModelError> {
    let scfg = StreamConfig {
        increment,
        threshold: 1.0,
        sustain: u32::MAX,
    };
    let mut session = StreamSession::begin(
        detector,
        &sample.program,
        &sample.victim,
        &cfg.modeling,
        &scfg,
    )?;
    let mut scores = Vec::new();
    loop {
        let update = session
            .push(None, None)
            .expect("no deadline, so the scan cannot expire");
        scores.push((update.steps, update.best.map_or(0.0, |(_, s)| s)));
        if update.done {
            return Ok(ScoreTrace {
                family,
                scores,
                total_steps: update.steps,
            });
        }
    }
}

/// Replay a recorded score series through the alarm state machine:
/// the step count at which a streak of `sustain` consecutive scores
/// ≥ `threshold` completes, or `None` when the policy never fires.
fn alarm_step(scores: &[(u64, f64)], threshold: f64, sustain: u32) -> Option<u64> {
    let sustain = sustain.max(1);
    let mut streak = 0u32;
    for &(steps, score) in scores {
        if score >= threshold {
            streak += 1;
        } else {
            streak = 0;
        }
        if streak >= sustain {
            return Some(steps);
        }
    }
    None
}

/// Run the streaming evaluation at `cfg`'s scale: enroll the four PoC
/// representatives, stream `cfg.per_type` mutated variants per family and
/// `cfg.benign_total` benign programs once each, then derive the default-
/// policy family rows and the (τ, k) sweep from the recorded scores.
///
/// # Errors
///
/// Propagates [`ModelError`] from enrolling a PoC or opening a stream.
pub fn streaming_latency(cfg: &EvalConfig) -> Result<StreamingReport, ModelError> {
    let params = PocParams::default();
    let mut repo = ModelRepository::new();
    for &family in AttackFamily::ALL.iter() {
        let sample = poc::representative(family, &params);
        repo.add_poc(family, &sample.program, &sample.victim, &cfg.modeling)?;
    }
    let detector = indexed_detector(repo, cfg.threshold);

    let increment = StreamConfig::default().increment;
    let mutation = MutationConfig::default();
    let mut traces = Vec::new();
    for &family in AttackFamily::ALL.iter() {
        for sample in mutated_family(family, cfg.per_type, cfg.seed, &mutation) {
            traces.push(stream_scores(
                &detector,
                &sample,
                Some(family),
                cfg,
                increment,
            )?);
        }
    }
    for sample in benign::generate_mix(cfg.benign_total, cfg.seed ^ 0xbe) {
        traces.push(stream_scores(&detector, &sample, None, cfg, increment)?);
    }

    // Per-family latency at the default policy.
    let default_policy = StreamConfig::default();
    let families = AttackFamily::ALL
        .iter()
        .map(|&family| {
            let of_family: Vec<&ScoreTrace> =
                traces.iter().filter(|t| t.family == Some(family)).collect();
            let alarms: Vec<(u64, u64)> = of_family
                .iter()
                .filter_map(|t| {
                    alarm_step(&t.scores, default_policy.threshold, default_policy.sustain)
                        .map(|at| (at, t.total_steps))
                })
                .collect();
            let mean = |values: &[f64]| {
                if values.is_empty() {
                    0.0
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                }
            };
            StreamingFamilyRow {
                family,
                detected: alarms.len(),
                total: of_family.len(),
                mean_steps_to_alarm: mean(
                    &alarms.iter().map(|&(at, _)| at as f64).collect::<Vec<_>>(),
                ),
                mean_trace_fraction: mean(
                    &alarms
                        .iter()
                        .map(|&(at, total)| at as f64 / total.max(1) as f64)
                        .collect::<Vec<_>>(),
                ),
                mean_trace_steps: mean(
                    &of_family
                        .iter()
                        .map(|t| t.total_steps as f64)
                        .collect::<Vec<_>>(),
                ),
            }
        })
        .collect();

    // The (τ, k) sweep: pure replays of the recorded scores.
    let mut sweep = Vec::new();
    for &threshold in &SWEEP_THRESHOLDS {
        for &sustain in &SWEEP_SUSTAINS {
            let mut detected = 0usize;
            let mut attack_total = 0usize;
            let mut false_alarms = 0usize;
            let mut benign_total = 0usize;
            let mut latency_sum = 0.0;
            for trace in &traces {
                let fired = alarm_step(&trace.scores, threshold, sustain);
                if trace.family.is_some() {
                    attack_total += 1;
                    if let Some(at) = fired {
                        detected += 1;
                        latency_sum += at as f64;
                    }
                } else {
                    benign_total += 1;
                    false_alarms += usize::from(fired.is_some());
                }
            }
            sweep.push(StreamingPoint {
                threshold,
                sustain,
                detected,
                attack_total,
                false_alarms,
                benign_total,
                mean_steps_to_alarm: if detected > 0 {
                    latency_sum / detected as f64
                } else {
                    0.0
                },
            });
        }
    }
    Ok(StreamingReport { families, sweep })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_detects_early_without_false_alarms() {
        let report = streaming_latency(&EvalConfig::small(2)).expect("streaming eval");
        assert_eq!(report.families.len(), AttackFamily::ALL.len());
        let total: usize = report.families.iter().map(|r| r.total).sum();
        assert_eq!(total, 2 * AttackFamily::ALL.len());

        // The default (τ, k) is on the sweep grid; at that point benign
        // programs never alarm while most attack variants do — and the
        // alarms land well before the end of the trace.
        let default = report
            .sweep
            .iter()
            .find(|p| {
                p.threshold == StreamConfig::DEFAULT_THRESHOLD
                    && p.sustain == StreamConfig::default().sustain
            })
            .expect("the default policy is a sweep point");
        assert_eq!(default.false_alarms, 0, "benign stream alarmed");
        assert!(
            default.detected * 2 >= default.attack_total,
            "too few attacks detected: {}/{}",
            default.detected,
            default.attack_total
        );
        for row in &report.families {
            if row.detected > 0 {
                assert!(
                    row.mean_trace_fraction < 0.95,
                    "{}: alarms only at the end of the trace ({:.2})",
                    row.family,
                    row.mean_trace_fraction
                );
            }
        }

        // Lowering τ to the detection threshold with no sustain must
        // only ever fire more, never less.
        let loose = report
            .sweep
            .iter()
            .find(|p| p.threshold == 0.20 && p.sustain == 1)
            .expect("loosest sweep point");
        assert!(loose.detected >= default.detected);
        assert!(loose.false_alarms >= default.false_alarms);
    }

    #[test]
    fn replay_matches_a_live_session() {
        let cfg = EvalConfig::small(1);
        let params = PocParams::default();
        let mut repo = ModelRepository::new();
        for &family in AttackFamily::ALL.iter() {
            let sample = poc::representative(family, &params);
            repo.add_poc(family, &sample.program, &sample.victim, &cfg.modeling)
                .expect("model poc");
        }
        let detector = indexed_detector(repo, cfg.threshold);

        let sample = poc::representative(AttackFamily::FlushReload, &params);
        let policy = StreamConfig::default();
        let trace = stream_scores(
            &detector,
            &sample,
            Some(AttackFamily::FlushReload),
            &cfg,
            policy.increment,
        )
        .expect("stream");
        let replayed = alarm_step(&trace.scores, policy.threshold, policy.sustain);

        let mut live = StreamSession::begin(
            &detector,
            &sample.program,
            &sample.victim,
            &cfg.modeling,
            &policy,
        )
        .expect("session");
        while !live.is_done() {
            live.push(None, None).expect("no deadline");
        }
        assert_eq!(
            live.alarm().map(|a| a.at_step),
            replayed,
            "replayed policy diverges from the live session"
        );
    }
}
