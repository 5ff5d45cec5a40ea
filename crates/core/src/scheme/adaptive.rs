//! Adaptive slack: a feedback loop on the slack bound (paper §4).
//!
//! The controller tracks the running violation rate (violations per
//! simulated cycle) over each sampling window and compares it against a
//! preset *target violation rate*. The slack bound is widened when the rate
//! is below the target (violations are infrequent, so more slack is
//! affordable) and narrowed — *slack throttling* — when above. No adjustment
//! is made while the rate stays inside the *violation band*, a hysteresis
//! range of `target × (1 ± band)`.
//!
//! Internally the controller maintains a *fractional* bound: the published
//! integer bound is its floor, so a fractional value of 1.3 duty-cycles
//! between bounds 1 and 2 as it drifts. This gives the feedback loop a
//! smooth dial even though the smallest slack step (one cycle) can sit far
//! above a low target rate — the bound dwells at the violation-free
//! minimum most of the time and probes larger slack at a duty cycle
//! proportional to the target.

use crate::persist::{ByteReader, ByteWriter, Persist, PersistError};
use crate::scheme::{PaceSample, Pacer};
use crate::time::Cycle;

/// How the bound moves when an adjustment is warranted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepPolicy {
    /// Additive increase by `up`, additive decrease by `down` (cycles per
    /// sampling window; fractions accumulate).
    Additive {
        /// Cycles added to the bound on increase.
        up: f64,
        /// Cycles removed from the bound on decrease.
        down: f64,
    },
    /// Additive increase by `up`, multiplicative decrease by halving —
    /// the classic AIMD rule; reacts fast to violation bursts.
    Aimd {
        /// Cycles added to the bound on increase.
        up: f64,
    },
    /// Multiplicative: bound doubles on increase and halves on decrease.
    /// Converges fast but oscillates more.
    Multiplicative,
    /// Error-proportional (default): the bound moves by
    /// `step × clamp((target − rate) / target, −max_throttle, 1)` per
    /// window. Overshooting the target by a large factor therefore
    /// throttles proportionally harder than a quiet window widens, letting
    /// the loop settle at duty cycles (and thus mean rates) far below the
    /// rate of the smallest violating bound.
    Proportional {
        /// Cycles moved per unit of relative error.
        step: f64,
        /// Clamp on the negative relative error (how much harder
        /// throttling may push than widening).
        max_throttle: f64,
    },
}

impl Default for StepPolicy {
    fn default() -> Self {
        StepPolicy::Proportional {
            step: 0.5,
            max_throttle: 32.0,
        }
    }
}

/// Configuration of the adaptive-slack controller.
///
/// The paper's experiments use target violation rates from 0.01% to 0.20%
/// (expressed here as fractions: `1e-4` to `2e-3`) and violation bands of
/// 0% and 5%.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Target violation rate in violations per simulated cycle
    /// (e.g. `1e-4` for the paper's 0.01%).
    pub target_rate: f64,
    /// Hysteresis half-width as a fraction of the target (0.05 = the
    /// paper's "5% violation band"). No adjustment happens while the
    /// measured rate is within `target × (1 ± band)`.
    pub band: f64,
    /// Slack bound at simulation start.
    pub initial_bound: u64,
    /// Lowest admissible bound (paper: the bound is decreased "until it
    /// reaches the lowest possible value").
    pub min_bound: u64,
    /// Highest admissible bound.
    pub max_bound: u64,
    /// Length of each sampling window in simulated (global) cycles.
    pub sample_period: u64,
    /// Bound adjustment rule.
    pub step: StepPolicy,
}

impl AdaptiveConfig {
    /// Convenience constructor from a target rate expressed in percent
    /// (`0.01` → one violation per 10 000 cycles) and a band in percent.
    ///
    /// # Examples
    ///
    /// ```
    /// use slacksim_core::scheme::AdaptiveConfig;
    ///
    /// let cfg = AdaptiveConfig::percent(0.01, 5.0);
    /// assert!((cfg.target_rate - 1e-4).abs() < 1e-12);
    /// assert!((cfg.band - 0.05).abs() < 1e-12);
    /// ```
    pub fn percent(target_percent: f64, band_percent: f64) -> Self {
        AdaptiveConfig {
            target_rate: target_percent / 100.0,
            band: band_percent / 100.0,
            ..AdaptiveConfig::default()
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_rate: 1e-4,
            band: 0.05,
            initial_bound: 4,
            min_bound: 1,
            max_bound: 256,
            sample_period: 1024,
            step: StepPolicy::default(),
        }
    }
}

/// The adaptive-slack pacer: bounded slack whose bound follows the
/// feedback rule of [`AdaptiveConfig`].
///
/// # Examples
///
/// ```
/// use slacksim_core::scheme::{AdaptiveConfig, AdaptiveController, PaceSample, Pacer};
/// use slacksim_core::time::Cycle;
///
/// let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
/// let before = ctl.fractional_bound();
/// // A quiet window (no violations) widens the bound.
/// ctl.on_sample(&PaceSample {
///     global: Cycle::new(1024),
///     window_cycles: 1024,
///     window_violations: 0,
/// });
/// assert!(ctl.fractional_bound() > before);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    bound: f64,
    adjustments_up: u64,
    adjustments_down: u64,
    samples: u64,
    trace: Vec<(Cycle, u64)>,
}

impl AdaptiveController {
    /// Creates a controller at the configured initial bound.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (`min_bound` of 0,
    /// `min_bound > max_bound`, non-positive target rate, negative band, or
    /// a zero sample period).
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(cfg.min_bound >= 1, "min_bound must be at least 1");
        assert!(
            cfg.min_bound <= cfg.max_bound,
            "min_bound must not exceed max_bound"
        );
        assert!(cfg.target_rate > 0.0, "target rate must be positive");
        assert!(cfg.band >= 0.0, "violation band must be non-negative");
        assert!(cfg.sample_period >= 1, "sample period must be at least 1");
        let bound = (cfg.initial_bound as f64).clamp(cfg.min_bound as f64, cfg.max_bound as f64);
        AdaptiveController {
            cfg,
            bound,
            adjustments_up: 0,
            adjustments_down: 0,
            samples: 0,
            trace: Vec::new(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The internal fractional bound (the published bound is its floor).
    pub fn fractional_bound(&self) -> f64 {
        self.bound
    }

    /// Number of widening adjustments performed so far.
    pub fn adjustments_up(&self) -> u64 {
        self.adjustments_up
    }

    /// Number of throttling adjustments performed so far.
    pub fn adjustments_down(&self) -> u64 {
        self.adjustments_down
    }

    /// Number of samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// History of `(global time, bound)` recorded at every sample.
    pub fn trace(&self) -> &[(Cycle, u64)] {
        &self.trace
    }

    /// Lower clamp of the fractional bound. The proportional policy may
    /// drive it below `min_bound` (throttling "debt"): the published bound
    /// stays at the minimum while the debt is paid off by quiet windows,
    /// which is what lets mean rates settle proportionally to targets far
    /// below the rate of the smallest violating bound (anti-windup is the
    /// debt cap itself).
    fn floor(&self) -> f64 {
        match self.cfg.step {
            StepPolicy::Proportional { step, max_throttle } => {
                self.cfg.min_bound as f64 - step * max_throttle
            }
            _ => self.cfg.min_bound as f64,
        }
    }

    fn apply(&mut self, delta: f64) {
        let next = (self.bound + delta).clamp(self.floor(), self.cfg.max_bound as f64);
        if next > self.bound {
            self.adjustments_up += 1;
        } else if next < self.bound {
            self.adjustments_down += 1;
        }
        self.bound = next;
    }

    fn integer_bound(&self) -> u64 {
        if self.bound < self.cfg.min_bound as f64 {
            return self.cfg.min_bound;
        }
        (self.bound.floor() as u64).clamp(self.cfg.min_bound, self.cfg.max_bound)
    }
}

impl Pacer for AdaptiveController {
    fn window_end(&self, global: Cycle) -> Cycle {
        global.saturating_add(self.integer_bound())
    }

    fn on_sample(&mut self, sample: &PaceSample) {
        self.samples += 1;
        let rate = sample.rate();
        let target = self.cfg.target_rate;
        let hi = target * (1.0 + self.cfg.band);
        let lo = target * (1.0 - self.cfg.band);
        if rate > hi {
            // Throttle.
            let delta = match self.cfg.step {
                StepPolicy::Additive { down, .. } => -down,
                StepPolicy::Aimd { .. } | StepPolicy::Multiplicative => -self.bound / 2.0,
                StepPolicy::Proportional { step, max_throttle } => {
                    step * ((target - rate) / target).max(-max_throttle)
                }
            };
            self.apply(delta);
        } else if rate < lo {
            // Widen.
            let delta = match self.cfg.step {
                StepPolicy::Additive { up, .. } | StepPolicy::Aimd { up } => up,
                StepPolicy::Multiplicative => self.bound,
                StepPolicy::Proportional { step, .. } => {
                    step * (((target - rate) / target).min(1.0))
                }
            };
            self.apply(delta);
        }
        self.trace.push((sample.global, self.integer_bound()));
    }

    fn current_bound(&self) -> Option<u64> {
        Some(self.integer_bound())
    }

    fn scheme_name(&self) -> &'static str {
        "adaptive-slack"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut ByteWriter) {
        w.f64(self.bound);
        w.u64(self.adjustments_up);
        w.u64(self.adjustments_down);
        w.u64(self.samples);
        self.trace.save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        self.bound = r.f64()?;
        if !self.bound.is_finite() {
            return Err(PersistError::Corrupt("non-finite adaptive bound"));
        }
        self.adjustments_up = r.u64()?;
        self.adjustments_down = r.u64()?;
        self.samples = r.u64()?;
        self.trace = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycles: u64, violations: u64) -> PaceSample {
        PaceSample {
            global: Cycle::new(cycles),
            window_cycles: cycles,
            window_violations: violations,
        }
    }

    fn controller(target: f64, band: f64, step: StepPolicy) -> AdaptiveController {
        AdaptiveController::new(AdaptiveConfig {
            target_rate: target,
            band,
            initial_bound: 16,
            min_bound: 1,
            max_bound: 256,
            sample_period: 1000,
            step,
        })
    }

    #[test]
    fn quiet_windows_widen_the_bound() {
        let mut c = controller(1e-4, 0.0, StepPolicy::Additive { up: 4.0, down: 4.0 });
        c.on_sample(&sample(1000, 0));
        assert_eq!(c.current_bound(), Some(20));
        assert_eq!(c.adjustments_up(), 1);
        assert_eq!(c.adjustments_down(), 0);
    }

    #[test]
    fn noisy_windows_throttle_the_bound() {
        let mut c = controller(1e-4, 0.0, StepPolicy::Additive { up: 4.0, down: 4.0 });
        c.on_sample(&sample(1000, 100));
        assert_eq!(c.current_bound(), Some(12));
        assert_eq!(c.adjustments_down(), 1);
    }

    #[test]
    fn band_suppresses_adjustment() {
        // target 0.1/cycle, band 5% → no move while rate in [0.095, 0.105].
        let mut c = controller(0.1, 0.05, StepPolicy::Additive { up: 4.0, down: 4.0 });
        c.on_sample(&sample(1000, 100)); // rate exactly on target
        c.on_sample(&sample(1000, 104)); // inside band
        c.on_sample(&sample(1000, 96)); // inside band
        assert_eq!(c.current_bound(), Some(16));
        assert_eq!(c.adjustments_up() + c.adjustments_down(), 0);
        c.on_sample(&sample(1000, 110)); // above band
        assert_eq!(c.current_bound(), Some(12));
    }

    #[test]
    fn zero_band_reacts_to_any_deviation() {
        let mut c = controller(0.1, 0.0, StepPolicy::Additive { up: 1.0, down: 1.0 });
        c.on_sample(&sample(1000, 101));
        assert_eq!(c.current_bound(), Some(15));
        c.on_sample(&sample(1000, 99));
        assert_eq!(c.current_bound(), Some(16));
        // Exactly on target: no adjustment even with zero band.
        c.on_sample(&sample(1000, 100));
        assert_eq!(c.current_bound(), Some(16));
    }

    #[test]
    fn bound_respects_min_and_max() {
        let mut c = controller(1e-6, 0.0, StepPolicy::Multiplicative);
        for _ in 0..64 {
            c.on_sample(&sample(1000, 1000)); // violent throttling
        }
        assert_eq!(c.current_bound(), Some(1));
        for _ in 0..64 {
            c.on_sample(&sample(1_000_000_000, 0)); // violent widening
        }
        assert_eq!(c.current_bound(), Some(256));
    }

    #[test]
    fn aimd_halves_on_throttle() {
        let mut c = controller(1e-4, 0.0, StepPolicy::Aimd { up: 4.0 });
        c.on_sample(&sample(1000, 50));
        assert_eq!(c.current_bound(), Some(8));
        c.on_sample(&sample(1000, 50));
        assert_eq!(c.current_bound(), Some(4));
    }

    #[test]
    fn proportional_throttles_harder_on_larger_overshoot() {
        let mut a = controller(1e-3, 0.0, StepPolicy::default());
        let mut b = controller(1e-3, 0.0, StepPolicy::default());
        a.on_sample(&sample(1000, 2)); // 2× target
        b.on_sample(&sample(1000, 64)); // 64× target
        assert!(b.fractional_bound() < a.fractional_bound());
    }

    #[test]
    fn proportional_widening_is_capped_at_one_step() {
        let mut c = controller(
            1e-3,
            0.0,
            StepPolicy::Proportional {
                step: 0.5,
                max_throttle: 64.0,
            },
        );
        let before = c.fractional_bound();
        c.on_sample(&sample(1_000_000, 0)); // infinitely quiet
        assert!((c.fractional_bound() - before - 0.5).abs() < 1e-9);
    }

    #[test]
    fn proportional_duty_cycles_below_the_smallest_violating_bound() {
        // Emulate a system where bound 1 yields zero violations and any
        // larger bound yields a rate 100× the target: the loop must dwell
        // at bound 1 most of the time.
        let mut c = AdaptiveController::new(AdaptiveConfig {
            target_rate: 1e-4,
            band: 0.05,
            initial_bound: 1,
            min_bound: 1,
            max_bound: 256,
            sample_period: 1000,
            step: StepPolicy::default(),
        });
        let mut at_one = 0u32;
        let n = 2000;
        for _ in 0..n {
            let violations = if c.current_bound() == Some(1) { 0 } else { 10 };
            c.on_sample(&sample(1000, violations));
            if c.current_bound() == Some(1) {
                at_one += 1;
            }
        }
        let duty = 1.0 - f64::from(at_one) / f64::from(n);
        assert!(
            duty < 0.06,
            "loop must probe larger bounds rarely, duty={duty}"
        );
        assert!(duty > 0.0, "loop must still probe occasionally");
    }

    #[test]
    fn trace_records_every_sample() {
        let mut c = controller(1e-4, 0.0, StepPolicy::default());
        for i in 1..=5u64 {
            c.on_sample(&PaceSample {
                global: Cycle::new(i * 1000),
                window_cycles: 1000,
                window_violations: 0,
            });
        }
        assert_eq!(c.trace().len(), 5);
        assert_eq!(c.samples(), 5);
        assert!(c.trace().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn initial_bound_is_clamped() {
        let c = AdaptiveController::new(AdaptiveConfig {
            initial_bound: 10_000,
            max_bound: 64,
            ..AdaptiveConfig::default()
        });
        assert_eq!(c.current_bound(), Some(64));
    }

    #[test]
    #[should_panic(expected = "min_bound must not exceed max_bound")]
    fn inconsistent_bounds_rejected() {
        let _ = AdaptiveController::new(AdaptiveConfig {
            min_bound: 100,
            max_bound: 10,
            ..AdaptiveConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "target rate must be positive")]
    fn zero_target_rejected() {
        let _ = AdaptiveController::new(AdaptiveConfig {
            target_rate: 0.0,
            ..AdaptiveConfig::default()
        });
    }

    #[test]
    fn percent_constructor() {
        let cfg = AdaptiveConfig::percent(0.2, 0.0);
        assert!((cfg.target_rate - 0.002).abs() < 1e-12);
        assert_eq!(cfg.band, 0.0);
    }

    #[test]
    fn window_end_uses_current_bound() {
        let mut c = controller(1e-4, 0.0, StepPolicy::Additive { up: 4.0, down: 4.0 });
        assert_eq!(c.window_end(Cycle::new(100)), Cycle::new(116));
        c.on_sample(&sample(1000, 0));
        assert_eq!(c.window_end(Cycle::new(100)), Cycle::new(120));
    }
}
