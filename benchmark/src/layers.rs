//! Isolated microbenchmarks of the layers the traced pass cannot see into:
//! each times one public operation of one module on its own, in ns per
//! operation. They are the map for the attribution table, not a verdict:
//! nothing is gated on them.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::slacksim_cmp::bus::Bus;
use slacksim::slacksim_cmp::cache::Cache;
use slacksim::slacksim_cmp::directory::Directory;
use slacksim::slacksim_cmp::{
    BusOp, CacheConfig, CmpCore, CmpUncore, LineAddr, MemEvent, MesiState,
};
use slacksim::slacksim_core::engine::{SaveHook, SequentialEngine};
use slacksim::slacksim_core::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use slacksim::slacksim_core::persist::{self, ByteReader, ByteWriter};
use slacksim::slacksim_core::sync::SpscRing;
use slacksim::{
    Benchmark, CmpConfig, Cycle, EngineConfig, SpeculationConfig, UncoreConfig, WorkloadParams,
};

use crate::stats::Summary;

/// One microbenchmark's result.
#[derive(Debug, Clone)]
pub struct Micro {
    /// Metric name: layer, metric, variant.
    pub name: String,
    /// Unit of the summary.
    pub unit: &'static str,
    /// Over the timed batches.
    pub summary: Summary,
}

/// Shortest time one microbenchmark measures for.
const MIN_TIME: Duration = Duration::from_millis(300);

/// Times `batch` (which does a fixed amount of work and returns how many
/// operations, or MiB, that was) until [`MIN_TIME`] has passed, at least five times.
fn bench(out: &mut Vec<Micro>, name: &str, unit: &'static str, mut batch: impl FnMut() -> f64) {
    batch(); // warm caches and allocations
    let mut per_op = Vec::new();
    let start = Instant::now();
    while per_op.len() < 5 || start.elapsed() < MIN_TIME {
        let t = Instant::now();
        let ops = batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops);
    }
    out.push(Micro {
        name: name.to_owned(),
        unit,
        summary: Summary::of(&per_op).expect("at least five batches ran"),
    });
}

/// Operations per batch: long enough (milliseconds) that the clock reads
/// around a batch do not matter.
const OPS: u64 = 200_000;

/// A small deterministic generator for timestamps and addresses; the
/// microbenchmarks need spread, not statistical quality.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn event(ts: u64) -> Timestamped<MemEvent> {
    Timestamped::new(
        Cycle::new(ts),
        MemEvent::Writeback {
            line: LineAddr::new(ts),
        },
    )
}

fn event_queues(out: &mut Vec<Micro>) {
    let mut rng = Lcg(1);
    // A standing depth of 64 entries, about what 64 cores keep in flight.
    let mut gq = GlobalQueue::new();
    for i in 0..64 {
        gq.push(CoreId::new(i), event(u64::from(i)));
    }
    let mut now = 64;
    bench(out, "core.event.gq_ns_per_op.push_pop", "ns", || {
        for _ in 0..OPS / 2 {
            now += 1;
            gq.push(CoreId::new((now % 64) as u16), event(now + rng.next() % 16));
            black_box(gq.pop());
        }
        OPS as f64
    });
    let mut batch = Vec::new();
    bench(out, "core.event.gq_ns_per_op.push_batch_pop", "ns", || {
        for _ in 0..OPS / 32 {
            for _ in 0..16 {
                now += 1;
                batch.push(event(now));
            }
            gq.push_batch(CoreId::new((now % 64) as u16), &mut batch);
            for _ in 0..16 {
                black_box(gq.pop());
            }
        }
        OPS as f64
    });
    bench(out, "core.event.gq_ns_per_op.peek_replace", "ns", || {
        for _ in 0..OPS / 2 {
            now += 1;
            black_box(gq.peek_min());
            black_box(gq.replace_min(CoreId::new((now % 64) as u16), event(now + rng.next() % 16)));
        }
        OPS as f64
    });

    let mut inbox = Inbox::new();
    let mut now = 0;
    bench(out, "core.event.inbox_ns_per_op", "ns", || {
        for _ in 0..OPS / 2 {
            now += 1;
            inbox.deliver(event(now + rng.next() % 8));
            while let Some(due) = inbox.pop_due(Cycle::new(now)) {
                black_box(due);
            }
        }
        OPS as f64
    });
}

fn spsc(out: &mut Vec<Micro>) {
    // (variant, ring capacity, elements in flight): in the ring, and with
    // most of them in the mutex-guarded spill.
    for (variant, capacity, in_flight) in [("ring", 1024, 256u64), ("spill", 4, 64)] {
        let ring = SpscRing::with_capacity(capacity);
        bench(
            out,
            &format!("core.sync.spsc_ns_per_op.push_pop_{variant}"),
            "ns",
            || {
                for _ in 0..OPS / (2 * in_flight) {
                    for i in 0..in_flight {
                        ring.push(event(i));
                    }
                    for _ in 0..in_flight {
                        black_box(ring.pop());
                    }
                }
                OPS as f64
            },
        );
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        bench(
            out,
            &format!("core.sync.spsc_ns_per_op.batch_{variant}"),
            "ns",
            || {
                for _ in 0..OPS / (2 * in_flight) {
                    src.extend((0..in_flight).map(event));
                    ring.push_batch(&mut src);
                    black_box(ring.drain_into(&mut dst));
                    dst.clear();
                }
                OPS as f64
            },
        );
    }
}

fn scheme_windows(out: &mut Vec<Micro>) {
    let schemes = [
        ("cc", Scheme::CycleByCycle),
        ("bounded", Scheme::BoundedSlack { bound: 16 }),
        ("quantum", Scheme::Quantum { quantum: 50 }),
        ("adaptive", Scheme::Adaptive(AdaptiveConfig::default())),
    ];
    for (variant, scheme) in schemes {
        let pacer = scheme.into_pacer();
        bench(
            out,
            &format!("core.scheme.window_ns.{variant}"),
            "ns",
            || {
                for g in 0..OPS {
                    black_box(pacer.window_end(black_box(Cycle::new(g))));
                }
                OPS as f64
            },
        );
    }
}

fn cache_probe(out: &mut Vec<Micro>) {
    let cfg = CacheConfig::l1();
    let lines_in_cache = cfg.size_bytes / cfg.line_bytes;
    // Working set half the cache (every probe hits) and four times the
    // cache (most probes miss and fill).
    for (variant, lines) in [
        ("in16k", lines_in_cache / 2),
        ("out64k", lines_in_cache * 4),
    ] {
        let mut cache = Cache::new(cfg);
        let mut rng = Lcg(2);
        bench(out, &format!("cmp.cache.probe_ns.{variant}"), "ns", || {
            for _ in 0..OPS {
                let line = LineAddr::new(rng.next() % lines);
                if cache.probe(line).is_none() {
                    black_box(cache.fill(line, MesiState::Shared));
                }
            }
            OPS as f64
        });
    }
}

fn interconnects(out: &mut Vec<Micro>) {
    let cfg = UncoreConfig::default();
    // Monotone timestamps take the slot calendar's past-the-horizon fast
    // path; timestamps that jump back by up to 32 cycles make it search.
    for (variant, jitter) in [("monotone", 1), ("conflicting", 32)] {
        let mut rng = Lcg(3);
        let mut bus = Bus::new(cfg.req_bus_cycles, cfg.resp_bus_cycles);
        let mut now = 64;
        bench(
            out,
            &format!("cmp.bus.arbitrate_ns.{variant}"),
            "ns",
            || {
                for _ in 0..OPS {
                    now += 2;
                    black_box(bus.arbitrate(Cycle::new(now - rng.next() % jitter)));
                }
                OPS as f64
            },
        );
        let mut dir = Directory::new(64, cfg.dir_lookup_latency);
        let mut now = 64;
        bench(
            out,
            &format!("cmp.directory.access_ns.{variant}"),
            "ns",
            || {
                for _ in 0..OPS {
                    now += 2;
                    let r = rng.next();
                    let line = LineAddr::new(r % 4096);
                    let from = CoreId::new((r >> 12) as u16 % 64);
                    let ts = Cycle::new(now - r % jitter);
                    black_box(dir.access(BusOp::Rd, line, from, ts));
                }
                OPS as f64
            },
        );
    }
}

fn streams(out: &mut Vec<Micro>) {
    for b in [
        Benchmark::Barnes,
        Benchmark::Fft,
        Benchmark::Lu,
        Benchmark::WaterNsquared,
    ] {
        let mut stream = b.stream(&WorkloadParams::new(0, 8, 1));
        let name = format!("workloads.stream_ns_per_instr.{}", b.name().to_lowercase());
        bench(out, &name, "ns", || {
            for _ in 0..OPS {
                black_box(stream.next_instr());
            }
            OPS as f64
        });
    }
}

/// Models of an 8-core WATER run as they stand at its last checkpoint.
fn warmed_models() -> (Vec<CmpCore>, CmpUncore) {
    type Models = (Vec<CmpCore>, CmpUncore);
    let cmp = CmpConfig::paper();
    let stream = |i| Benchmark::WaterNsquared.stream(&WorkloadParams::new(i, cmp.cores, 1));
    let cores = CmpCore::build_cmp(&cmp, stream);
    let mut cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 16 }, 400_000);
    cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
    let kept: Arc<Mutex<Option<Models>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&kept);
    let hook: SaveHook<CmpCore, CmpUncore> = Box::new(move |view| {
        let cores = view.cores.iter().map(|(c, _)| (*c).clone()).collect();
        *sink.lock().expect("the hook does not panic") = Some((cores, view.uncore.clone()));
        None
    });
    SequentialEngine::new(cores, CmpUncore::new(&cmp), cfg)
        .with_save_hook(hook)
        .run()
        .expect("the warming run reaches its commit target");
    let models = kept.lock().expect("the hook does not panic").take();
    models.expect("a 400k-commit run passes a checkpoint")
}

fn persist_paths(out: &mut Vec<Micro>, scratch: &Path) {
    let (cores, uncore) = warmed_models();
    let encode = || {
        let mut w = ByteWriter::new();
        for c in &cores {
            c.save_state(&mut w);
        }
        uncore.save_state(&mut w);
        w.into_bytes()
    };
    let payload = encode();
    let mb = payload.len() as f64 / (1 << 20) as f64;
    // One encode or decode of the whole target per batch, reported per MiB
    // of payload so it scales to any snapshot size.
    bench(
        out,
        "core.persist.encode_ns_per_mb.models",
        "ns/MiB",
        || {
            black_box(encode());
            mb
        },
    );
    let cmp = CmpConfig::paper();
    bench(
        out,
        "core.persist.decode_ns_per_mb.models",
        "ns/MiB",
        || {
            let stream = |i| Benchmark::WaterNsquared.stream(&WorkloadParams::new(i, cmp.cores, 1));
            let mut fresh = CmpCore::build_cmp(&cmp, stream);
            let mut fresh_uncore = CmpUncore::new(&cmp);
            let mut r = ByteReader::new(&payload);
            for c in &mut fresh {
                c.load_state(&mut r)
                    .expect("decoding what was just encoded");
            }
            fresh_uncore
                .load_state(&mut r)
                .expect("decoding what was just encoded");
            black_box((fresh, fresh_uncore));
            mb
        },
    );
    let container = persist::encode_container("bench", &payload);
    bench(
        out,
        "core.persist.encode_ns_per_mb.container",
        "ns/MiB",
        || {
            black_box(persist::encode_container("bench", black_box(&payload)));
            mb
        },
    );
    bench(
        out,
        "core.persist.decode_ns_per_mb.container",
        "ns/MiB",
        || {
            black_box(persist::decode_container(black_box(&container)).expect("valid container"));
            mb
        },
    );

    std::fs::create_dir_all(scratch).expect("the output directory can be created");
    let path = scratch.join("write-atomic.bin");
    bench(out, "core.persist.write_atomic_ns", "ns", || {
        persist::write_atomic(&path, &container).expect("the output directory is writable");
        1.0
    });
    let _ = std::fs::remove_file(&path);
    out.push(Micro {
        name: "core.persist.snapshot_bytes".to_owned(),
        unit: "B",
        summary: Summary::of(&[container.len() as f64]).expect("one value"),
    });
}

/// Runs every microbenchmark; `scratch` is where `write_atomic` writes.
pub fn run_all(scratch: &Path) -> Vec<Micro> {
    let mut out = Vec::new();
    event_queues(&mut out);
    spsc(&mut out);
    scheme_windows(&mut out);
    cache_probe(&mut out);
    interconnects(&mut out);
    streams(&mut out);
    persist_paths(&mut out, scratch);
    out
}
