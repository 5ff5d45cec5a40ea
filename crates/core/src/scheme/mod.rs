//! Slack schemes: the policies that pace core-thread progress.
//!
//! Every scheme is a [`Pacer`], a closed enum: given the current global
//! time it yields the *window end* — the exclusive upper limit on all core
//! local times. A core thread may simulate cycle `t` only while
//! `t < window_end(global)`. The schemes of the paper map to:
//!
//! | Scheme | pacer | window end | event servicing |
//! |---|---|---|---|
//! | cycle-by-cycle | `Quantum(1)` | `g + 1` | barrier: batched & sorted each cycle |
//! | bounded slack `B` | `Bounded(B)` | `g + B` | greedy, in arrival order |
//! | unbounded slack | `Unbounded` | `∞` | greedy |
//! | quantum `Q` | `Quantum(Q)` | next multiple of `Q` | barrier at each boundary |
//! | adaptive | `Adaptive` | `g + B(t)`, `B` retuned by feedback | greedy |
//! | Lax-P2P | `LaxP2p` | per core: a peer's clock `+ lead` | greedy |
//!
//! Barrier servicing means the manager defers event processing until every
//! core has reached the window end, then services the whole batch in
//! timestamp order. This makes cycle-by-cycle the deterministic gold
//! standard (zero violations by construction) and gives quantum simulation
//! its characteristic behaviour: ordering stays correct but event delivery
//! is delayed to the boundary, distorting timing once the quantum exceeds
//! the target's critical latency.

mod adaptive;

pub use adaptive::{AdaptiveConfig, AdaptiveController, StepPolicy};

use crate::persist::{ByteReader, ByteWriter, Persist, PersistError};
use crate::time::Cycle;

/// Observation window handed to [`Pacer::on_sample`] at each adaptive
/// sampling period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceSample {
    /// Global time at the end of the observation window.
    pub global: Cycle,
    /// Simulated cycles covered by the window.
    pub window_cycles: u64,
    /// Violations (all kinds the controller tracks) detected inside the
    /// window.
    pub window_violations: u64,
}

impl PaceSample {
    /// Violation rate inside this window (violations per simulated cycle).
    pub fn rate(&self) -> f64 {
        if self.window_cycles == 0 {
            0.0
        } else {
            self.window_violations as f64 / self.window_cycles as f64
        }
    }
}

/// A pacing policy: decides how far ahead of global time core threads may
/// run, and whether the manager services events greedily or at barriers.
/// Built from a [`Scheme`] by [`Scheme::into_pacer`]; cycle-by-cycle is a
/// quantum of one.
#[derive(Debug, Clone)]
pub enum Pacer {
    /// Bounded slack: all clocks within the bound of the slowest.
    Bounded(u64),
    /// Unbounded slack: cores never wait for each other.
    Unbounded,
    /// Barrier at every multiple of the quantum.
    Quantum(u64),
    /// Bounded slack whose bound follows the feedback rule.
    Adaptive(AdaptiveController),
    /// Each core paced against a randomly chosen peer.
    LaxP2p(LaxP2p),
}

impl Pacer {
    /// Exclusive upper limit on local times given the current global time.
    ///
    /// Monotone in `global` and strictly greater than it (otherwise no
    /// core could ever advance and the simulation would deadlock).
    #[inline]
    pub fn window_end(&self, global: Cycle) -> Cycle {
        match self {
            Pacer::Bounded(bound) => global.saturating_add(*bound),
            Pacer::Unbounded => Cycle::MAX,
            Pacer::Quantum(quantum) => global.next_multiple_of(*quantum),
            Pacer::Adaptive(ctl) => global.saturating_add(ctl.bound()),
            // Fallback uniform window (used by engines only before the
            // first per-core computation): bounded slack at `lead`.
            Pacer::LaxP2p(p2p) => global.saturating_add(p2p.lead),
        }
    }

    /// When `true`, the manager defers event servicing until all cores have
    /// reached the window end, then services the batch in timestamp order.
    #[inline]
    pub fn barrier_service(&self) -> bool {
        matches!(self, Pacer::Quantum(_))
    }

    /// Feedback hook, invoked once per sampling period with the violation
    /// observations of that window. Only the adaptive pacer reacts.
    pub fn on_sample(&mut self, sample: &PaceSample) {
        if let Pacer::Adaptive(ctl) = self {
            ctl.on_sample(sample);
        }
    }

    /// The current slack bound in cycles, when the concept applies.
    pub fn current_bound(&self) -> Option<u64> {
        match self {
            Pacer::Bounded(bound) | Pacer::Quantum(bound) => Some(*bound),
            Pacer::Unbounded => None,
            Pacer::Adaptive(ctl) => Some(ctl.bound()),
            Pacer::LaxP2p(p2p) => Some(p2p.lead),
        }
    }

    /// Per-core window ends under peer-to-peer pacing: fills `ends` (the
    /// caller's, reused across iterations) with one window end per core
    /// and returns `true`; the core holding the minimum local time always
    /// gets a window above it. Every other pacer returns `false` and keeps
    /// the uniform [`window_end`](Pacer::window_end) for every core.
    pub fn window_ends(&mut self, locals: &[Cycle], ends: &mut Vec<Cycle>) -> bool {
        match self {
            Pacer::LaxP2p(p2p) => {
                p2p.window_ends(locals, ends);
                true
            }
            _ => false,
        }
    }

    /// Serializes the pacer's *dynamic* state for durable checkpoints.
    /// Pacers whose state the [`Scheme`] rebuilds write nothing.
    pub fn save_state(&self, w: &mut ByteWriter) {
        match self {
            Pacer::Adaptive(ctl) => ctl.save_state(w),
            Pacer::LaxP2p(p2p) => p2p.save_state(w),
            Pacer::Bounded(_) | Pacer::Unbounded | Pacer::Quantum(_) => {}
        }
    }

    /// Restores dynamic state captured by [`save_state`](Pacer::save_state)
    /// into a pacer freshly built from the same [`Scheme`] configuration.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        match self {
            Pacer::Adaptive(ctl) => ctl.load_state(r),
            Pacer::LaxP2p(p2p) => p2p.load_state(r),
            Pacer::Bounded(_) | Pacer::Unbounded | Pacer::Quantum(_) => Ok(()),
        }
    }
}

/// Configuration enum covering every scheme in the paper; converts into a
/// [`Pacer`] via [`Scheme::into_pacer`].
///
/// # Examples
///
/// ```
/// use slacksim_core::scheme::Scheme;
/// use slacksim_core::time::Cycle;
///
/// let pacer = Scheme::BoundedSlack { bound: 8 }.into_pacer();
/// assert_eq!(pacer.window_end(Cycle::new(100)), Cycle::new(108));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Barrier after every simulated cycle — the gold standard.
    CycleByCycle,
    /// Clocks kept within `bound` cycles of the slowest core.
    BoundedSlack {
        /// Maximum clock spread in cycles (must be ≥ 1).
        bound: u64,
    },
    /// No synchronisation between core threads at all.
    UnboundedSlack,
    /// Barrier at every multiple of `quantum` cycles.
    Quantum {
        /// Quantum length in cycles (must be ≥ 1).
        quantum: u64,
    },
    /// Bounded slack whose bound is retuned by a violation-rate feedback
    /// loop (paper §4).
    Adaptive(AdaptiveConfig),
    /// Graphite-style peer-to-peer synchronisation (the paper's §6 names
    /// this as an approach to explore): each core periodically picks a
    /// random peer and may only run up to that peer's clock plus `lead`.
    LaxP2p {
        /// How far ahead of the chosen peer a core may run, in cycles.
        lead: u64,
        /// How often (in global cycles) each core re-picks its peer.
        period: u64,
        /// Seed for the deterministic peer choices.
        seed: u64,
    },
}

impl Scheme {
    /// Builds the pacer implementing this scheme.
    ///
    /// # Panics
    ///
    /// Panics if a bound, quantum, p2p lead or p2p period of 0 is
    /// configured, or an inconsistent [`AdaptiveConfig`].
    pub fn into_pacer(self) -> Pacer {
        match self {
            Scheme::CycleByCycle => Pacer::Quantum(1),
            Scheme::BoundedSlack { bound } => {
                assert!(bound >= 1, "slack bound must be at least 1");
                Pacer::Bounded(bound)
            }
            Scheme::UnboundedSlack => Pacer::Unbounded,
            Scheme::Quantum { quantum } => {
                assert!(quantum >= 1, "quantum must be at least 1");
                Pacer::Quantum(quantum)
            }
            Scheme::Adaptive(cfg) => Pacer::Adaptive(AdaptiveController::new(cfg)),
            Scheme::LaxP2p { lead, period, seed } => Pacer::LaxP2p(LaxP2p::new(lead, period, seed)),
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::CycleByCycle => "cycle-by-cycle",
            Scheme::BoundedSlack { .. } => "bounded-slack",
            Scheme::UnboundedSlack => "unbounded-slack",
            Scheme::Quantum { .. } => "quantum",
            Scheme::Adaptive(_) => "adaptive-slack",
            Scheme::LaxP2p { .. } => "lax-p2p",
        }
    }
}

/// Peer-to-peer pacer: each core is paced against one randomly chosen
/// peer, re-drawn every `period` global cycles (Graphite's *LaxP2P*,
/// paper §6).
///
/// Liveness: the slowest core's peer is at or ahead of it, so its window
/// is always at least `global + lead > global`.
#[derive(Debug, Clone)]
pub struct LaxP2p {
    lead: u64,
    period: u64,
    rng: crate::rng::Xoshiro256,
    partners: Vec<usize>,
    next_shuffle: Cycle,
}

impl LaxP2p {
    fn new(lead: u64, period: u64, seed: u64) -> Self {
        assert!(lead >= 1, "p2p lead must be at least 1");
        assert!(period >= 1, "p2p period must be at least 1");
        LaxP2p {
            lead,
            period,
            rng: crate::rng::Xoshiro256::new(seed),
            partners: Vec::new(),
            next_shuffle: Cycle::ZERO,
        }
    }

    /// Fills `ends` with each core's window: its peer's clock plus the
    /// lead, re-drawing the pairing every `period` global cycles.
    fn window_ends(&mut self, locals: &[Cycle], ends: &mut Vec<Cycle>) {
        let n = locals.len();
        let global = locals.iter().copied().min().unwrap_or(Cycle::ZERO);
        if self.partners.len() != n || global >= self.next_shuffle {
            self.partners.clear();
            for i in 0..n {
                // Pick a peer other than yourself (any peer for n == 1).
                let mut p = self.rng.next_below(n as u64) as usize;
                if p == i && n > 1 {
                    p = (p + 1) % n;
                }
                self.partners.push(p);
            }
            self.next_shuffle = global.saturating_add(self.period);
        }
        ends.clear();
        ends.extend(
            self.partners
                .iter()
                .map(|&p| locals[p].saturating_add(self.lead)),
        );
    }

    fn save_state(&self, w: &mut ByteWriter) {
        self.rng.save(w);
        w.u32(self.partners.len() as u32);
        for &p in &self.partners {
            w.u32(p as u32);
        }
        w.u64(self.next_shuffle.as_u64());
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        self.rng = Persist::load(r)?;
        let n = r.u32()? as usize;
        self.partners = (0..n)
            .map(|_| r.u32().map(|p| p as usize))
            .collect::<Result<_, _>>()?;
        // `window_ends` indexes the cores' clocks with every partner.
        if self.partners.iter().any(|&p| p >= n) {
            return Err(PersistError::Corrupt("p2p partner is not a core"));
        }
        self.next_shuffle = Cycle::new(r.u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn cycle_by_cycle_window_is_one() {
        let p = Scheme::CycleByCycle.into_pacer();
        assert_eq!(p.window_end(g(0)), g(1));
        assert_eq!(p.window_end(g(41)), g(42));
        assert!(p.barrier_service());
        assert_eq!(p.current_bound(), Some(1));
    }

    #[test]
    fn bounded_window_tracks_global() {
        let p = Scheme::BoundedSlack { bound: 5 }.into_pacer();
        assert_eq!(p.window_end(g(0)), g(5));
        assert_eq!(p.window_end(g(100)), g(105));
        assert!(!p.barrier_service());
        assert_eq!(p.current_bound(), Some(5));
    }

    #[test]
    fn bounded_saturates_at_max() {
        let p = Scheme::BoundedSlack { bound: 10 }.into_pacer();
        assert_eq!(p.window_end(Cycle::MAX), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "slack bound must be at least 1")]
    fn bounded_rejects_zero() {
        let _ = Scheme::BoundedSlack { bound: 0 }.into_pacer();
    }

    #[test]
    fn unbounded_window_is_max() {
        let p = Scheme::UnboundedSlack.into_pacer();
        assert_eq!(p.window_end(g(7)), Cycle::MAX);
        assert_eq!(p.current_bound(), None);
    }

    #[test]
    fn quantum_window_snaps_to_boundary() {
        let p = Scheme::Quantum { quantum: 10 }.into_pacer();
        assert_eq!(p.window_end(g(0)), g(10));
        assert_eq!(p.window_end(g(9)), g(10));
        assert_eq!(p.window_end(g(10)), g(20));
        assert!(p.barrier_service());
    }

    #[test]
    #[should_panic(expected = "quantum must be at least 1")]
    fn quantum_rejects_zero() {
        let _ = Scheme::Quantum { quantum: 0 }.into_pacer();
    }

    #[test]
    fn windows_always_exceed_global() {
        // Liveness invariant shared by all pacers.
        for scheme in [
            Scheme::CycleByCycle,
            Scheme::BoundedSlack { bound: 3 },
            Scheme::UnboundedSlack,
            Scheme::Quantum { quantum: 7 },
            Scheme::Adaptive(AdaptiveConfig::default()),
        ] {
            let p = scheme.clone().into_pacer();
            for t in [0u64, 1, 6, 7, 8, 63, 64, 1000] {
                assert!(p.window_end(g(t)) > g(t), "{} stalls at {t}", scheme.name());
            }
        }
    }

    #[test]
    fn schemes_have_short_table_names() {
        assert_eq!(Scheme::CycleByCycle.name(), "cycle-by-cycle");
        assert_eq!(Scheme::BoundedSlack { bound: 2 }.name(), "bounded-slack");
        assert_eq!(Scheme::UnboundedSlack.name(), "unbounded-slack");
        assert_eq!(Scheme::Quantum { quantum: 4 }.name(), "quantum");
        assert_eq!(
            Scheme::Adaptive(AdaptiveConfig::default()).name(),
            "adaptive-slack"
        );
    }

    fn p2p(lead: u64, period: u64, seed: u64) -> Pacer {
        Scheme::LaxP2p { lead, period, seed }.into_pacer()
    }

    #[test]
    fn lax_p2p_windows_follow_partners() {
        let mut p = p2p(10, 100, 7);
        let locals = vec![Cycle::new(50), Cycle::new(80), Cycle::new(60)];
        let mut wins = Vec::new();
        assert!(p.window_ends(&locals, &mut wins), "per-core windows");
        assert_eq!(wins.len(), 3);
        // Liveness: the slowest core can always advance.
        assert!(wins[0] > locals[0]);
        // Every window is some peer's local + lead.
        for (i, w) in wins.iter().enumerate() {
            assert!(
                locals.iter().any(|&l| l + 10 == *w),
                "window {i} = {w} not peer-derived"
            );
        }
    }

    #[test]
    fn lax_p2p_reshuffles_deterministically() {
        let locals = vec![Cycle::new(0); 4];
        let mut a = p2p(5, 50, 9);
        let mut b = p2p(5, 50, 9);
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        assert_eq!(
            a.window_ends(&locals, &mut wa),
            b.window_ends(&locals, &mut wb)
        );
        assert_eq!(wa, wb);
    }

    /// Pacer bytes as `LaxP2p`'s `save_state` lays them out.
    fn p2p_bytes(partners: &[u32], next_shuffle: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for word in [1u64, 2, 3, 4] {
            w.u64(word);
        }
        w.u32(partners.len() as u32);
        partners.iter().for_each(|&p| w.u32(p));
        w.u64(next_shuffle);
        w.into_bytes()
    }

    #[test]
    fn lax_p2p_refuses_a_partner_that_is_not_a_core() {
        // Four cores, pairing not yet due to be redrawn: `window_ends`
        // would index the clocks with every stored partner.
        let locals = vec![Cycle::new(10); 4];
        let mut p = p2p(8, 100, 1);
        let good = p2p_bytes(&[1, 2, 3, 0], 1000);
        p.load_state(&mut ByteReader::new(&good))
            .expect("valid pairing");
        let mut wins = Vec::new();
        assert!(p.window_ends(&locals, &mut wins));
        assert_eq!(wins, vec![Cycle::new(18); 4]);

        for bad in [[1, 2, 4, 0], [1, 2, 3, u32::MAX]] {
            let mut p = p2p(8, 100, 1);
            let err = p.load_state(&mut ByteReader::new(&p2p_bytes(&bad, 1000)));
            assert!(
                matches!(err, Err(PersistError::Corrupt(_))),
                "{bad:?}: {err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "p2p lead must be at least 1")]
    fn lax_p2p_rejects_zero_lead() {
        let _ = p2p(0, 10, 1);
    }

    #[test]
    fn scheme_p2p_name() {
        assert_eq!(
            Scheme::LaxP2p {
                lead: 8,
                period: 100,
                seed: 1
            }
            .name(),
            "lax-p2p"
        );
    }

    #[test]
    fn sample_rate() {
        let s = PaceSample {
            global: g(100),
            window_cycles: 1000,
            window_violations: 3,
        };
        assert!((s.rate() - 0.003).abs() < 1e-12);
        let zero = PaceSample {
            global: g(0),
            window_cycles: 0,
            window_violations: 0,
        };
        assert_eq!(zero.rate(), 0.0);
    }
}
