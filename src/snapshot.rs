//! On-disk snapshot encoding for the concrete CMP simulation.
//!
//! The generic engines expose checkpoints as borrowed
//! [`CheckpointView`]s and accept restored state as [`EngineResume`]
//! values; this module is where those views meet the concrete
//! [`CmpCore`]/[`CmpUncore`] models and become bytes. The container
//! format (magic, version, config fingerprint, checksum, atomic writes)
//! and the checkpoint-directory conventions (`cp-<ordinal>` files, newest
//! kept, older pruned) live in [`slacksim_core::persist`]; this module
//! owns the payload layout.

use slacksim_cmp::core::CmpCore;
use slacksim_cmp::event::MemEvent;
use slacksim_cmp::uncore::CmpUncore;
use slacksim_core::engine::{CheckpointView, EngineResume, Ledger};
use slacksim_core::event::{Inbox, Timestamped};
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::scheme::Scheme;
use slacksim_core::time::Cycle;

/// One line of the config fingerprint: the scheme with every parameter
/// that changes simulation behaviour, so a resume under a different bound
/// or seed is refused instead of silently diverging.
pub(crate) fn scheme_token(scheme: &Scheme) -> String {
    match scheme {
        Scheme::CycleByCycle => "cycle-by-cycle".to_owned(),
        Scheme::BoundedSlack { bound } => format!("bounded-slack:{bound}"),
        Scheme::UnboundedSlack => "unbounded-slack".to_owned(),
        Scheme::Quantum { quantum } => format!("quantum:{quantum}"),
        Scheme::Adaptive(cfg) => format!(
            "adaptive-slack:{}:{}:{}:{}:{}:{}:{:?}",
            cfg.target_rate,
            cfg.band,
            cfg.initial_bound,
            cfg.min_bound,
            cfg.max_bound,
            cfg.sample_period,
            cfg.step,
        ),
        Scheme::LaxP2p { lead, period, seed } => {
            format!("lax-p2p:{lead}:{period}:{seed}")
        }
    }
}

fn save_inbox(w: &mut ByteWriter, inbox: &Inbox<MemEvent>) {
    let events = inbox.sorted_events();
    w.u32(events.len() as u32);
    for ev in &events {
        w.u64(ev.ts.as_u64());
        ev.payload.save(w);
    }
}

fn load_inbox(r: &mut ByteReader<'_>) -> Result<Inbox<MemEvent>, PersistError> {
    let n = r.u32()?;
    let mut inbox = Inbox::new();
    for _ in 0..n {
        let ts = Cycle::new(r.u64()?);
        let payload = MemEvent::load(r)?;
        inbox.deliver(Timestamped::new(ts, payload));
    }
    Ok(inbox)
}

/// Appends a committed checkpoint's snapshot payload to `w` — in practice
/// the writer of a container already begun by
/// [`slacksim_core::persist::CheckpointWriter::begin`], so the payload is
/// laid down once, behind its header.
pub(crate) fn encode_snapshot(view: &CheckpointView<'_, CmpCore, CmpUncore>, w: &mut ByteWriter) {
    w.u64(view.ordinal);
    w.u64(view.global.as_u64());
    w.u32(view.cores.len() as u32);
    for (core, inbox) in view.cores {
        core.save_state(w);
        save_inbox(w, inbox);
    }
    view.uncore.save_state(w);
    w.u64(view.committed);
    view.ledger.save(w);
}

/// Decodes a snapshot payload into restored engine state. `fresh_cores` and `fresh_uncore` must be newly built from
/// the same configuration as the persisted run (streams at position zero,
/// empty caches); each model's `load_state` then rebuilds its exact state
/// in place.
pub(crate) fn decode_snapshot(
    payload: &[u8],
    fresh_cores: Vec<CmpCore>,
    fresh_uncore: CmpUncore,
    scheme: &Scheme,
    spec_interval: Option<u64>,
) -> Result<EngineResume<CmpCore, CmpUncore>, PersistError> {
    let mut r = ByteReader::new(payload);
    let _ordinal = r.u64()?;
    let global = Cycle::new(r.u64()?);
    let n = r.u32()? as usize;
    if n != fresh_cores.len() {
        return Err(PersistError::Corrupt(
            "snapshot core count does not match the configuration",
        ));
    }
    let mut cores = Vec::with_capacity(n);
    for mut core in fresh_cores {
        core.load_state(&mut r)?;
        let inbox = load_inbox(&mut r)?;
        cores.push((core, inbox));
    }
    let mut uncore = fresh_uncore;
    uncore.load_state(&mut r)?;
    let committed = r.u64()?;
    let ledger = Ledger::load(&mut r, scheme, spec_interval)?;
    r.finish()?;
    Ok(EngineResume {
        global,
        committed,
        cores,
        uncore,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use slacksim_cmp::cache::CacheConfig;
    use slacksim_core::persist;
    use slacksim_core::rng::Xoshiro256;

    use super::*;
    use crate::{Benchmark, CmpConfig, Simulation, SpeculationConfig, UncoreKind};

    /// A target with two-way caches of a few sets, so a snapshot is a few
    /// KiB and decoding one is cheap.
    fn small_target(kind: UncoreKind, cores: usize) -> CmpConfig {
        let mut cmp = CmpConfig::with_uncore(kind, cores);
        let l1 = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
        };
        cmp.core.l1i = l1;
        cmp.core.l1d = l1;
        cmp.uncore.l2 = CacheConfig {
            size_bytes: 1024,
            ..l1
        };
        cmp
    }

    /// Decodes `payload` the way `--resume` does, into models freshly
    /// built for `sim`.
    fn decode(sim: &Simulation, payload: &[u8]) -> Result<(), PersistError> {
        let spec_interval = sim.speculation.map(|s| s.interval);
        let fresh_uncore = CmpUncore::new(&sim.cmp);
        decode_snapshot(
            payload,
            sim.build_cores(),
            fresh_uncore,
            &sim.scheme,
            spec_interval,
        )
        .map(drop)
    }

    /// Hostile bytes straight into the resume path's decoder, past the
    /// container checksum that would otherwise stop them first: every
    /// strict prefix of a snapshot payload is refused, and no single-byte
    /// flip makes the decoder panic — it refuses the bytes or decodes
    /// some state. The adaptive and Lax-P2P payloads carry their pacers'
    /// state, and the adaptive one a bound trace. Last, seeded splices —
    /// the head of one payload joined to the tail of another, at one
    /// offset in both or at two — decoded as either run's snapshot never
    /// panic either.
    #[test]
    fn hostile_payloads_are_refused_or_decoded_never_panic() {
        let bounded = Scheme::BoundedSlack { bound: 8 };
        let adaptive = Scheme::Adaptive(slacksim_core::scheme::AdaptiveConfig {
            sample_period: 64,
            ..Default::default()
        });
        let p2p = Scheme::LaxP2p {
            lead: 8,
            period: 100,
            seed: 1,
        };
        let mut runs = Vec::new();
        for (kind, cores, scheme) in [
            (UncoreKind::Bus, 2, bounded.clone()),
            (UncoreKind::Directory, 4, bounded),
            (UncoreKind::Bus, 2, adaptive),
            (UncoreKind::Bus, 2, p2p),
        ] {
            let label = format!("{kind}/{}", scheme.name());
            let dir = std::env::temp_dir().join(format!(
                "slacksim-hostile-{kind}-{}-{}",
                scheme.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut sim = Simulation::new(Benchmark::Barnes);
            sim.cmp_config(small_target(kind, cores))
                .scheme(scheme)
                .commit_target(400)
                .speculation(SpeculationConfig::checkpoint_only(50))
                .save_state(&dir);
            let report = sim.run().expect("the run finishes");
            let checkpoints = report.kernel.get("checkpoints");
            let bytes = std::fs::read(dir.join(format!("cp-{checkpoints:08}"))).expect("snapshot");
            let _ = std::fs::remove_dir_all(&dir);
            let (_, payload) = persist::decode_container(&bytes).expect("container");
            decode(&sim, payload).expect("the intact payload decodes");
            let payload = payload.to_vec();

            for cut in 0..payload.len() {
                assert!(
                    decode(&sim, &payload[..cut]).is_err(),
                    "{label}: a {cut}-byte prefix of {} decoded",
                    payload.len()
                );
            }
            let mut flipped = payload.to_vec();
            for at in 0..payload.len() {
                for mask in [0x01, 0xff] {
                    flipped[at] ^= mask;
                    let decoded = catch_unwind(AssertUnwindSafe(|| decode(&sim, &flipped)));
                    assert!(decoded.is_ok(), "{label}: byte {at} ^ {mask:#04x} panicked");
                    flipped[at] ^= mask;
                }
            }
            runs.push((label, sim, payload));
        }

        let mut rng = Xoshiro256::new(0x5911ce);
        for splice in 0..400 {
            let i = rng.next_below(runs.len() as u64) as usize;
            let j = rng.next_below(runs.len() as u64) as usize;
            let (head, tail) = (&runs[i].2, &runs[j].2);
            let cut = rng.next_below(head.len() as u64 + 1) as usize;
            let resume_at = if splice % 2 == 0 {
                cut.min(tail.len())
            } else {
                rng.next_below(tail.len() as u64 + 1) as usize
            };
            let spliced = [&head[..cut], &tail[resume_at..]].concat();
            for (label, sim, _) in [&runs[i], &runs[j]] {
                let decoded = catch_unwind(AssertUnwindSafe(|| decode(sim, &spliced)));
                assert!(
                    decoded.is_ok(),
                    "{label}: {} head {cut} + {} tail from {resume_at} panicked",
                    runs[i].0,
                    runs[j].0
                );
            }
        }
    }
}
