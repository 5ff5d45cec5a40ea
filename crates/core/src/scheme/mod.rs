//! Slack schemes: the policies that pace core-thread progress.
//!
//! Every scheme is expressed through the [`Pacer`] trait: given the current
//! global time it yields the *window end* — the exclusive upper limit on all
//! core local times. A core thread may simulate cycle `t` only while
//! `t < window_end(global)`. The schemes of the paper map to:
//!
//! | Scheme | window end | event servicing |
//! |---|---|---|
//! | cycle-by-cycle | `g + 1` | barrier: batched & sorted each cycle |
//! | bounded slack `B` | `g + B` | greedy, in arrival order |
//! | unbounded slack | `∞` | greedy |
//! | quantum `Q` | next multiple of `Q` | barrier at each boundary |
//! | adaptive | `g + B(t)`, `B` retuned by feedback | greedy |
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
pub trait Pacer: Send {
    /// Exclusive upper limit on local times given the current global time.
    ///
    /// Every implementation must be monotone in `global` and must return a
    /// value strictly greater than `global` (otherwise no core could ever
    /// advance and the simulation would deadlock).
    fn window_end(&self, global: Cycle) -> Cycle;

    /// When `true`, the manager defers event servicing until all cores have
    /// reached the window end, then services the batch in timestamp order.
    fn barrier_service(&self) -> bool {
        false
    }

    /// Feedback hook, invoked once per sampling period with the violation
    /// observations of that window. Only adaptive schemes react.
    fn on_sample(&mut self, _sample: &PaceSample) {}

    /// The current slack bound in cycles, when the concept applies.
    fn current_bound(&self) -> Option<u64> {
        None
    }

    /// Short human-readable scheme name for reports.
    fn scheme_name(&self) -> &'static str;

    /// Per-core window ends, for schemes that pace each core relative to
    /// *other cores' clocks* instead of global time (e.g. peer-to-peer
    /// synchronisation). Returning `None` (the default) keeps the uniform
    /// [`window_end`](Pacer::window_end) for every core.
    ///
    /// Implementations must keep the system live: the core holding the
    /// minimum local time must always receive a window strictly greater
    /// than its local time.
    fn window_ends(&mut self, _locals: &[Cycle]) -> Option<Vec<Cycle>> {
        None
    }

    /// Clones the pacer, including any adaptive state, into a new box.
    /// Required so the engines can snapshot pacer state at checkpoints.
    fn clone_box(&self) -> Box<dyn Pacer>;

    /// Serializes the pacer's *dynamic* state for durable checkpoints.
    /// Stateless pacers (everything reconstructible from the [`Scheme`]
    /// configuration) write nothing, which is the default.
    fn save_state(&self, _w: &mut ByteWriter) {}

    /// Restores dynamic state captured by [`save_state`](Pacer::save_state)
    /// into a pacer freshly built from the same [`Scheme`] configuration.
    fn load_state(&mut self, _r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        Ok(())
    }
}

impl Clone for Box<dyn Pacer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Configuration enum covering every scheme in the paper; converts into a
/// boxed [`Pacer`] via [`Scheme::into_pacer`].
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
    /// Panics if a bound or quantum of 0 is configured.
    pub fn into_pacer(self) -> Box<dyn Pacer> {
        match self {
            Scheme::CycleByCycle => Box::new(CycleByCycle),
            Scheme::BoundedSlack { bound } => Box::new(BoundedSlack::new(bound)),
            Scheme::UnboundedSlack => Box::new(UnboundedSlack),
            Scheme::Quantum { quantum } => Box::new(Quantum::new(quantum)),
            Scheme::Adaptive(cfg) => Box::new(AdaptiveController::new(cfg)),
            Scheme::LaxP2p { lead, period, seed } => Box::new(LaxP2p::new(lead, period, seed)),
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

/// Cycle-by-cycle pacer: lockstep with barrier servicing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleByCycle;

impl Pacer for CycleByCycle {
    fn window_end(&self, global: Cycle) -> Cycle {
        global + 1
    }

    fn barrier_service(&self) -> bool {
        true
    }

    fn current_bound(&self) -> Option<u64> {
        Some(1)
    }

    fn scheme_name(&self) -> &'static str {
        "cycle-by-cycle"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(*self)
    }
}

/// Bounded-slack pacer: all clocks within `bound` of the slowest.
#[derive(Debug, Clone, Copy)]
pub struct BoundedSlack {
    bound: u64,
}

impl BoundedSlack {
    /// Creates a pacer with the given slack bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn new(bound: u64) -> Self {
        assert!(bound >= 1, "slack bound must be at least 1");
        BoundedSlack { bound }
    }
}

impl Pacer for BoundedSlack {
    fn window_end(&self, global: Cycle) -> Cycle {
        global.saturating_add(self.bound)
    }

    fn current_bound(&self) -> Option<u64> {
        Some(self.bound)
    }

    fn scheme_name(&self) -> &'static str {
        "bounded-slack"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(*self)
    }
}

/// Unbounded-slack pacer: cores never wait for each other.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedSlack;

impl Pacer for UnboundedSlack {
    fn window_end(&self, _global: Cycle) -> Cycle {
        Cycle::MAX
    }

    fn scheme_name(&self) -> &'static str {
        "unbounded-slack"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(*self)
    }
}

/// Quantum pacer: barrier at every multiple of the quantum.
#[derive(Debug, Clone, Copy)]
pub struct Quantum {
    quantum: u64,
}

impl Quantum {
    /// Creates a pacer with the given quantum length.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is 0.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum >= 1, "quantum must be at least 1");
        Quantum { quantum }
    }
}

impl Pacer for Quantum {
    fn window_end(&self, global: Cycle) -> Cycle {
        global.next_multiple_of(self.quantum)
    }

    fn barrier_service(&self) -> bool {
        true
    }

    fn current_bound(&self) -> Option<u64> {
        Some(self.quantum)
    }

    fn scheme_name(&self) -> &'static str {
        "quantum"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(*self)
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
    /// Creates a pacer with the given lead and re-pairing period.
    ///
    /// # Panics
    ///
    /// Panics if `lead` or `period` is 0.
    pub fn new(lead: u64, period: u64, seed: u64) -> Self {
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

    fn reshuffle(&mut self, n: usize) {
        self.partners.clear();
        for i in 0..n {
            // Pick a peer other than yourself (any peer for n == 1).
            let mut p = self.rng.next_below(n as u64) as usize;
            if p == i && n > 1 {
                p = (p + 1) % n;
            }
            self.partners.push(p);
        }
    }
}

impl Pacer for LaxP2p {
    fn window_end(&self, global: Cycle) -> Cycle {
        // Fallback uniform window (used by engines only before the first
        // per-core computation): behave like bounded slack at `lead`.
        global.saturating_add(self.lead)
    }

    fn window_ends(&mut self, locals: &[Cycle]) -> Option<Vec<Cycle>> {
        let n = locals.len();
        let global = locals.iter().copied().min().unwrap_or(Cycle::ZERO);
        if self.partners.len() != n || global >= self.next_shuffle {
            self.reshuffle(n);
            self.next_shuffle = global.saturating_add(self.period);
        }
        Some(
            (0..n)
                .map(|i| locals[self.partners[i]].saturating_add(self.lead))
                .collect(),
        )
    }

    fn current_bound(&self) -> Option<u64> {
        Some(self.lead)
    }

    fn scheme_name(&self) -> &'static str {
        "lax-p2p"
    }

    fn clone_box(&self) -> Box<dyn Pacer> {
        Box::new(self.clone())
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
        let p = CycleByCycle;
        assert_eq!(p.window_end(g(0)), g(1));
        assert_eq!(p.window_end(g(41)), g(42));
        assert!(p.barrier_service());
        assert_eq!(p.current_bound(), Some(1));
    }

    #[test]
    fn bounded_window_tracks_global() {
        let p = BoundedSlack::new(5);
        assert_eq!(p.window_end(g(0)), g(5));
        assert_eq!(p.window_end(g(100)), g(105));
        assert!(!p.barrier_service());
        assert_eq!(p.current_bound(), Some(5));
    }

    #[test]
    fn bounded_saturates_at_max() {
        let p = BoundedSlack::new(10);
        assert_eq!(p.window_end(Cycle::MAX), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "slack bound must be at least 1")]
    fn bounded_rejects_zero() {
        let _ = BoundedSlack::new(0);
    }

    #[test]
    fn unbounded_window_is_max() {
        let p = UnboundedSlack;
        assert_eq!(p.window_end(g(7)), Cycle::MAX);
        assert_eq!(p.current_bound(), None);
    }

    #[test]
    fn quantum_window_snaps_to_boundary() {
        let p = Quantum::new(10);
        assert_eq!(p.window_end(g(0)), g(10));
        assert_eq!(p.window_end(g(9)), g(10));
        assert_eq!(p.window_end(g(10)), g(20));
        assert!(p.barrier_service());
    }

    #[test]
    #[should_panic(expected = "quantum must be at least 1")]
    fn quantum_rejects_zero() {
        let _ = Quantum::new(0);
    }

    #[test]
    fn windows_always_exceed_global() {
        // Liveness invariant shared by all pacers.
        let pacers: Vec<Box<dyn Pacer>> = vec![
            Scheme::CycleByCycle.into_pacer(),
            Scheme::BoundedSlack { bound: 3 }.into_pacer(),
            Scheme::UnboundedSlack.into_pacer(),
            Scheme::Quantum { quantum: 7 }.into_pacer(),
            Scheme::Adaptive(AdaptiveConfig::default()).into_pacer(),
        ];
        for p in &pacers {
            for t in [0u64, 1, 6, 7, 8, 63, 64, 1000] {
                assert!(
                    p.window_end(g(t)) > g(t),
                    "{} stalls at {t}",
                    p.scheme_name()
                );
            }
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::CycleByCycle.name(), "cycle-by-cycle");
        assert_eq!(Scheme::BoundedSlack { bound: 2 }.name(), "bounded-slack");
        assert_eq!(Scheme::UnboundedSlack.name(), "unbounded-slack");
        assert_eq!(Scheme::Quantum { quantum: 4 }.name(), "quantum");
        assert_eq!(
            Scheme::Adaptive(AdaptiveConfig::default()).name(),
            "adaptive-slack"
        );
    }

    #[test]
    fn lax_p2p_windows_follow_partners() {
        let mut p = LaxP2p::new(10, 100, 7);
        let locals = vec![Cycle::new(50), Cycle::new(80), Cycle::new(60)];
        let wins = p.window_ends(&locals).expect("per-core windows");
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
        let mut a = LaxP2p::new(5, 50, 9);
        let mut b = LaxP2p::new(5, 50, 9);
        assert_eq!(a.window_ends(&locals), b.window_ends(&locals));
    }

    /// Pacer bytes as `LaxP2p::save_state` lays them out.
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
        let mut p = LaxP2p::new(8, 100, 1);
        let good = p2p_bytes(&[1, 2, 3, 0], 1000);
        p.load_state(&mut ByteReader::new(&good))
            .expect("valid pairing");
        assert_eq!(p.window_ends(&locals), Some(vec![Cycle::new(18); 4]));

        for bad in [[1, 2, 4, 0], [1, 2, 3, u32::MAX]] {
            let mut p = LaxP2p::new(8, 100, 1);
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
        let _ = LaxP2p::new(0, 10, 1);
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
