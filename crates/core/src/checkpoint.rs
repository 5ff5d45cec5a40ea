//! Incremental (delta) checkpointing.
//!
//! The paper's `fork()`-based checkpoints got incremental capture for free
//! from OS copy-on-write: untouched pages cost nothing. Deep-cloning every
//! model at every checkpoint interval would pay for the whole state each
//! time. [`Checkpointable`] restores the missing asymptotics in a
//! deterministic, allocator-visible way: models track which of their parts
//! changed since a *generation* (a monotonic per-model mutation counter)
//! and capture only those parts. This is the engines' only checkpoint
//! mechanism: the models are cloned once, at run start, as the base every
//! later delta patches forward (DESIGN.md §12).
//!
//! ## The generation protocol
//!
//! A model keeps one monotonically increasing generation counter, bumped on
//! every mutating operation, and stamps the mutated *unit* (a cache set, a
//! map entry, a whole scalar block — granularity is the implementor's
//! choice) with the new generation. Then, with `g = model.generation()`
//! sampled at checkpoint `k`:
//!
//! * `capture_delta(g_prev)` returns every unit stamped *after* `g_prev`,
//!   i.e. everything that may differ from checkpoint `k-1`'s state;
//! * `apply_delta(delta)` consumes the delta to patch a base copy holding
//!   checkpoint `k-1` forward to checkpoint `k` — consuming lets bulk
//!   payloads (whole sets, whole maps) *move* into the base instead of
//!   being copied a second time;
//! * `restore_from(&base, g)` rolls the *live* model back to checkpoint
//!   `k` by overwriting every unit stamped after `g` with `base`'s value —
//!   the reverse application of whatever has happened since the
//!   checkpoint, without cloning the parts that never moved.
//!
//! Generations are never rewound: after a rollback the live model keeps
//! counting from where it was, so units touched during the discarded
//! window stay stamped above the checkpoint generation. A later capture
//! may therefore include a unit whose value never effectively changed —
//! that is a value-equal patch, harmless by construction. What must never
//! happen is the converse (a changed unit *not* included), which the
//! monotone stamps rule out.
//!
//! Tracking metadata (generation counters, unit stamps) is pure
//! bookkeeping: it must never influence model behaviour, and equality
//! between model states ignores it — models keep it in [`Tracking`]
//! fields, which all equal one another, and derive `PartialEq`. That is
//! what keeps a delta-maintained base bit-identical to a fresh clone,
//! which `crates/cmp/tests/delta_roundtrip.rs` asserts per model.
//!
//! Two shapes recur and are implemented once, here. A model dirtied by
//! nearly every operation tracks one generation for the whole struct and
//! gets a [`WholeDelta`] from
//! [`impl_checkpointable_whole!`](crate::impl_checkpointable_whole). A
//! *composite* (a core's two L1s, the uncore's components, the
//! directory's banks) hands out the sum of its parts' generations and
//! keeps a [`Baseline`] that maps the sum back to each part's. A model's
//! untracked scalars live in one sub-struct, which a delta clones and a
//! restore assigns.

use std::ops::{Deref, DerefMut};

/// A model whose state can be checkpointed incrementally.
///
/// Implementors keep a monotonic generation counter bumped on every
/// mutation and per-unit dirty stamps; see the [module docs](self) for the
/// full protocol and its invariants. `Clone` remains a supertrait because
/// the first (baseline) capture is a full clone, and because `Clone` is
/// the reference every delta round-trip is tested against.
///
/// Models without internal dirty tracking can opt into a trivially correct
/// whole-state implementation with
/// [`impl_checkpointable_by_clone!`](crate::impl_checkpointable_by_clone).
pub trait Checkpointable: Clone {
    /// The incremental state carrier produced by [`capture_delta`]
    /// (`Self::capture_delta`) and consumed by [`apply_delta`]
    /// (`Self::apply_delta`).
    type Delta: Send + 'static;

    /// Current generation: a monotonic counter of mutations applied to
    /// this model. `capture_delta(g)` with `g` sampled *now* returns an
    /// empty (or value-equal) delta.
    fn generation(&self) -> u64;

    /// Captures every unit of state mutated after `since_gen`, together
    /// with the capture-time generation. Takes `&mut self` so
    /// implementations may prune dirty bookkeeping that `since_gen`
    /// proves no longer reachable; the *model state* must not change.
    fn capture_delta(&mut self, since_gen: u64) -> Self::Delta;

    /// Patches this model (holding the state the delta was captured
    /// against) forward to the delta's capture point. Consumes the delta
    /// so implementations can move owned payloads into place rather than
    /// copy them again — what keeps the apply cost near zero even when
    /// most units are dirty.
    fn apply_delta(&mut self, delta: Self::Delta);

    /// Rolls this *live* model back to the state held by `base`, where
    /// `since_gen` is this model's generation sampled when `base` was
    /// current: every unit stamped after `since_gen` is overwritten with
    /// `base`'s value; clean units are left untouched. Generations are
    /// not rewound.
    fn restore_from(&mut self, base: &Self, since_gen: u64);
}

/// Capture bookkeeping kept inside a model — a generation counter, unit
/// stamps, a recorded [`Baseline`]. Every `Tracking` equals every other,
/// so a model deriving `PartialEq` compares its state and nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracking<T>(pub T);

impl<T> PartialEq for Tracking<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Tracking<T> {}

impl<T> Deref for Tracking<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Tracking<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The delta of state tracked as one unit: the whole of it, boxed, when it
/// moved since the capture baseline. Capture pays one clone — what the
/// state costs a full snapshot — and apply moves the box into place.
#[derive(Debug, Clone)]
pub struct WholeDelta<T> {
    gen: u64,
    state: Option<Box<T>>,
}

impl<T: Clone> WholeDelta<T> {
    /// Captures `state`, whose generation is `gen`, against `since_gen`.
    pub fn capture(state: &T, gen: u64, since_gen: u64) -> Self {
        WholeDelta {
            gen,
            state: (gen > since_gen).then(|| Box::new(state.clone())),
        }
    }

    /// Whether the delta carries any state.
    pub fn is_dirty(&self) -> bool {
        self.state.is_some()
    }

    /// Moves the carried state, if any, into `state` and returns the
    /// generation it was captured at.
    pub fn apply_to(self, state: &mut T) -> u64 {
        if let Some(captured) = self.state {
            *state = *captured;
        }
        self.gen
    }
}

/// Implements [`Checkpointable`] for models tracked as one unit: each
/// type has a field `gen: Tracking<u64>` bumped by every mutation, and its
/// delta is a [`WholeDelta`] of the whole struct.
///
/// # Examples
///
/// ```
/// use slacksim_core::checkpoint::{Checkpointable, Tracking};
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct Counter {
///     hits: u64,
///     gen: Tracking<u64>,
/// }
/// slacksim_core::impl_checkpointable_whole!(Counter);
///
/// let mut live = Counter { hits: 0, gen: Tracking(0) };
/// let base = live.clone();
/// let since = live.generation();
/// assert!(!live.capture_delta(since).is_dirty());
/// live.hits += 1;
/// *live.gen += 1;
/// live.restore_from(&base, since);
/// assert_eq!(live, base);
/// assert_eq!(live.generation(), 1, "generations are never rewound");
/// ```
#[macro_export]
macro_rules! impl_checkpointable_whole {
    ($($ty:ty),+ $(,)?) => {
        $(
            impl $crate::checkpoint::Checkpointable for $ty {
                type Delta = $crate::checkpoint::WholeDelta<$ty>;

                fn generation(&self) -> u64 {
                    *self.gen
                }

                fn capture_delta(&mut self, since_gen: u64) -> Self::Delta {
                    $crate::checkpoint::WholeDelta::capture(self, *self.gen, since_gen)
                }

                fn apply_delta(&mut self, delta: Self::Delta) {
                    let live = *self.gen;
                    let captured = delta.apply_to(self);
                    *self.gen = live.max(captured);
                }

                fn restore_from(&mut self, base: &Self, since_gen: u64) {
                    if *self.gen > since_gen {
                        let live = *self.gen;
                        self.clone_from(base);
                        *self.gen = live; // generations are never rewound
                    }
                }
            }
        )+
    };
}

/// The per-part baselines of a composite model.
///
/// A composite's generation is the sum of its parts' generations —
/// monotone, since every tracked mutation bumps exactly one part — and is
/// all an engine ever sees. `Baseline` records the parts' generations at
/// each capture under that token, and [`resolve`](Baseline::resolve)
/// maps a token back to them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline<G>(Tracking<Option<(u64, G)>>);

impl<G: Clone + AsRef<[u64]> + AsMut<[u64]>> Baseline<G> {
    /// The composite generation of parts at generations `parts`.
    pub fn token(parts: &G) -> u64 {
        parts.as_ref().iter().sum()
    }

    /// Per-part baselines for `since_gen`, given the parts' current
    /// generations: those the last capture recorded, when `since_gen` is
    /// the composite generation it left; the current ones when `since_gen`
    /// is the current token, since nothing moved; otherwise zero — a full
    /// capture or restore, conservative but never wrong.
    pub fn resolve(&self, since_gen: u64, mut parts: G) -> G {
        match &*self.0 {
            Some((token, recorded)) if *token == since_gen => recorded.clone(),
            _ if since_gen == Self::token(&parts) => parts,
            _ => {
                parts.as_mut().fill(0);
                parts
            }
        }
    }

    /// Records the parts' generations right after a capture.
    pub fn record(&mut self, parts: G) {
        *self.0 = Some((Self::token(&parts), parts));
    }
}

/// Implements [`Checkpointable`] for a `Clone` type by whole-state copy:
/// the delta *is* a full clone and every restore is a full overwrite.
///
/// This is the correct fallback for small models (test doubles, toy
/// examples) where dirty tracking would cost more than it saves, and it
/// keeps the trait bound satisfiable without forcing every model to carry
/// tracking machinery.
///
/// # Examples
///
/// ```
/// use slacksim_core::checkpoint::Checkpointable;
///
/// #[derive(Clone, PartialEq, Debug)]
/// struct Counter(u64);
/// slacksim_core::impl_checkpointable_by_clone!(Counter);
///
/// let mut live = Counter(1);
/// let base = live.clone();
/// let gen = live.generation();
/// live.0 = 99;
/// live.restore_from(&base, gen);
/// assert_eq!(live, Counter(1));
/// ```
#[macro_export]
macro_rules! impl_checkpointable_by_clone {
    ($($ty:ty),+ $(,)?) => {
        $(
            impl $crate::checkpoint::Checkpointable for $ty {
                type Delta = $ty;

                fn generation(&self) -> u64 {
                    0
                }

                fn capture_delta(&mut self, _since_gen: u64) -> Self::Delta {
                    self.clone()
                }

                fn apply_delta(&mut self, delta: Self::Delta) {
                    *self = delta;
                }

                fn restore_from(&mut self, base: &Self, _since_gen: u64) {
                    *self = base.clone();
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Blob(Vec<u64>);
    impl_checkpointable_by_clone!(Blob);

    #[test]
    fn clone_fallback_roundtrips() {
        let mut live = Blob(vec![1, 2, 3]);
        let gen = live.generation();
        let mut base = live.clone();

        live.0.push(4);
        let delta = live.capture_delta(gen);
        base.apply_delta(delta);
        assert_eq!(base, live, "apply reproduces the live state");

        live.0.clear();
        live.restore_from(&base, gen);
        assert_eq!(live, Blob(vec![1, 2, 3, 4]), "restore rewinds to base");
    }
}
