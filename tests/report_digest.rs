//! Pins the whole `SimReport` (minus `wall` and `prof`) of a fixed matrix
//! of runs to committed digests, so an engine refactor that is meant to be
//! behaviour-preserving can prove it: kernel counters, the adaptive bound
//! trace, per-core and uncore counters, the trace record count and the
//! metrics CSV bytes all feed the digest.
//!
//! Sequential and batched rows run with observability on (both engines
//! are fully deterministic). Threaded rows run cycle-by-cycle with
//! observability off and drop the host-dependent kernel counters (park
//! counts, the asynchronously sampled clock spread) — everything else is
//! exact under the barrier protocol.
//!
//! A mismatch prints the full computed table in source form; paste it
//! over `EXPECTED` only when a behaviour change is intended.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{
    Benchmark, EngineKind, ObsConfig, SimReport, Simulation, SpeculationConfig, UncoreKind,
    ViolationKind, ViolationSelect,
};

const KINDS: [ViolationKind; 5] = [
    ViolationKind::Bus,
    ViolationKind::Map,
    ViolationKind::Directory,
    ViolationKind::Workload,
    ViolationKind::Other,
];

/// Kernel counters that depend on host scheduling (threaded engine only).
const HOST_DEPENDENT: [&str; 3] = ["manager_parks", "core_parks", "max_clock_spread"];

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn counters(&mut self, c: &slacksim::slacksim_core::stats::Counters, skip: &[&str]) {
        for (name, value) in c.iter().filter(|(n, _)| !skip.contains(n)) {
            self.bytes(name.as_bytes());
            self.u64(value);
        }
        self.u64(u64::MAX);
    }
}

fn digest(r: &SimReport, skip_kernel: &[&str]) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.global_cycles);
    h.u64(r.committed);
    for kind in KINDS {
        h.u64(r.violations.count(kind));
    }
    h.counters(&r.kernel, skip_kernel);
    for &(cycle, bound) in &r.bound_trace {
        h.u64(cycle.as_u64());
        h.u64(bound);
    }
    h.u64(r.bound_trace.len() as u64);
    for core in &r.per_core {
        h.counters(core, &[]);
    }
    h.counters(&r.uncore, &[]);
    if let Some(obs) = &r.obs {
        h.u64(obs.records.len() as u64);
        h.u64(obs.dropped);
        h.bytes(obs.metrics_csv().as_bytes());
    }
    h.0
}

#[derive(Clone, Copy)]
enum Spec {
    Off,
    CheckpointOnly,
    RollbackAll,
}

impl Spec {
    fn name(self) -> &'static str {
        match self {
            Spec::Off => "off",
            Spec::CheckpointOnly => "cp-only",
            Spec::RollbackAll => "rollback-all",
        }
    }
}

fn run(engine: EngineKind, scheme: &Scheme, spec: Spec, cores: usize, uncore: UncoreKind) -> u64 {
    run_on(0, engine, scheme, spec, cores, uncore)
}

/// [`run`] with the host-thread count of the threaded engine's lanes or
/// the batched engine's windows pinned (0 = auto).
fn run_on(
    host_threads: usize,
    engine: EngineKind,
    scheme: &Scheme,
    spec: Spec,
    cores: usize,
    uncore: UncoreKind,
) -> u64 {
    run_bench(
        Benchmark::WaterNsquared,
        host_threads,
        engine,
        scheme,
        spec,
        cores,
        uncore,
    )
}

/// [`run_on`] with the benchmark chosen.
fn run_bench(
    bench: Benchmark,
    host_threads: usize,
    engine: EngineKind,
    scheme: &Scheme,
    spec: Spec,
    cores: usize,
    uncore: UncoreKind,
) -> u64 {
    let mut sim = Simulation::new(bench);
    sim.cores(cores)
        .uncore(uncore)
        .scheme(scheme.clone())
        .engine(engine)
        .host_threads(host_threads)
        .commit_target(40_000)
        .seed(7);
    match spec {
        Spec::Off => {}
        Spec::CheckpointOnly => {
            sim.speculation(SpeculationConfig::checkpoint_only(1000));
        }
        Spec::RollbackAll => {
            sim.speculation(SpeculationConfig::speculative(1000, ViolationSelect::all()));
        }
    }
    let threaded = engine == EngineKind::Threaded;
    if !threaded {
        sim.observability(ObsConfig::default().with_sample_every(700));
    }
    let report = sim.run().expect("run succeeds");
    digest(&report, if threaded { &HOST_DEPENDENT } else { &[] })
}

fn computed() -> Vec<(String, u64)> {
    let schemes = [
        ("cc", Scheme::CycleByCycle),
        ("b16", Scheme::BoundedSlack { bound: 16 }),
        (
            "adaptive",
            Scheme::Adaptive(AdaptiveConfig {
                sample_period: 512,
                ..AdaptiveConfig::default()
            }),
        ),
        ("q50", Scheme::Quantum { quantum: 50 }),
    ];
    let mut rows = Vec::new();
    for (name, scheme) in &schemes {
        for spec in [Spec::Off, Spec::CheckpointOnly, Spec::RollbackAll] {
            rows.push((
                format!("seq/{name}/{}", spec.name()),
                run(EngineKind::Sequential, scheme, spec, 8, UncoreKind::Bus),
            ));
        }
    }
    let q50 = Scheme::Quantum { quantum: 50 };
    for spec in [Spec::Off, Spec::CheckpointOnly] {
        rows.push((
            format!("bat/q50/{}", spec.name()),
            run(EngineKind::Batched, &q50, spec, 8, UncoreKind::Bus),
        ));
    }
    let cc = Scheme::CycleByCycle;
    // The directory's line tables under speculation: delta capture,
    // restore and monitor compaction on 16 and 64 cores.
    rows.push((
        "seq/b16/rollback-all/dir16".to_owned(),
        run_bench(
            Benchmark::Barnes,
            0,
            EngineKind::Sequential,
            &Scheme::BoundedSlack { bound: 16 },
            Spec::RollbackAll,
            16,
            UncoreKind::Directory,
        ),
    ));
    rows.push((
        "bat/q50/cp-only/dir64".to_owned(),
        run_bench(
            Benchmark::Fft,
            0,
            EngineKind::Batched,
            &q50,
            Spec::CheckpointOnly,
            64,
            UncoreKind::Directory,
        ),
    ));
    rows.push((
        "thr/cc/bus8".to_owned(),
        run(EngineKind::Threaded, &cc, Spec::Off, 8, UncoreKind::Bus),
    ));
    rows.push((
        "thr/cc/dir16".to_owned(),
        run(
            EngineKind::Threaded,
            &cc,
            Spec::Off,
            16,
            UncoreKind::Directory,
        ),
    ));
    rows
}

const EXPECTED: [(&str, u64); 18] = [
    ("seq/cc/off", 0x28fa_b0e6_9c11_12fe),
    ("seq/cc/cp-only", 0xf7e6_0cb3_fb1b_2ea9),
    ("seq/cc/rollback-all", 0xf7e6_0cb3_fb1b_2ea9),
    ("seq/b16/off", 0xd2f5_5bb1_6fa3_b7f6),
    ("seq/b16/cp-only", 0x2d04_400a_162c_461a),
    ("seq/b16/rollback-all", 0xca14_65dd_a5b1_0771),
    ("seq/adaptive/off", 0x6189_b8bc_d003_0b29),
    ("seq/adaptive/cp-only", 0x41f4_84ca_398f_604b),
    ("seq/adaptive/rollback-all", 0x35a9_dab9_fcb8_4c0c),
    ("seq/q50/off", 0xdb67_394b_67a5_7d9e),
    ("seq/q50/cp-only", 0x5e08_d44d_caa8_7305),
    ("seq/q50/rollback-all", 0x5e08_d44d_caa8_7305),
    ("bat/q50/off", 0x7a57_a10f_aded_d1f8),
    ("bat/q50/cp-only", 0xef09_d8c9_3307_dad1),
    ("seq/b16/rollback-all/dir16", 0xa48f_4946_ff31_9493),
    ("bat/q50/cp-only/dir64", 0xcfa7_2232_9793_f37a),
    ("thr/cc/bus8", 0xd760_12ca_9023_5456),
    ("thr/cc/dir16", 0x5f72_8148_45ad_5a80),
];

#[test]
fn report_digests_match_the_committed_constants() {
    let got = computed();
    let matches = got.len() == EXPECTED.len()
        && got
            .iter()
            .zip(EXPECTED)
            .all(|((gl, gv), (el, ev))| gl == el && *gv == ev);
    if !matches {
        let mut table = String::new();
        for (label, value) in &got {
            table.push_str(&format!("    (\"{label}\", {value:#018x}),\n"));
        }
        panic!("report digests changed; computed table:\n{table}");
    }
}

#[test]
fn batched_digests_hold_at_every_host_thread_count() {
    // The same constants, not new ones: trace record count and metrics
    // CSV bytes included, so the manager must emit the per-core phase
    // records in core order whoever ran the cores. At 2 and 3 threads the
    // workers run the windows (8 cores x 50 cycles) of the rows' last
    // stretch, past the 64 Ki core-cycles a run steps inline first; on
    // the 64-core directory they service the directory's homes of those
    // windows too, between the checkpoints.
    let q50 = Scheme::Quantum { quantum: 50 };
    let pinned = |label: &str| {
        EXPECTED
            .iter()
            .find(|(l, _)| *l == label)
            .expect("row is pinned")
            .1
    };
    for (spec, label) in [
        (Spec::Off, "bat/q50/off"),
        (Spec::CheckpointOnly, "bat/q50/cp-only"),
    ] {
        let want = pinned(label);
        for threads in [1, 2, 3] {
            let got = run_on(threads, EngineKind::Batched, &q50, spec, 8, UncoreKind::Bus);
            assert_eq!(got, want, "{label} on {threads} host threads: {got:#018x}");
        }
    }
    let label = "bat/q50/cp-only/dir64";
    let want = pinned(label);
    for threads in [1, 2, 3] {
        let got = run_bench(
            Benchmark::Fft,
            threads,
            EngineKind::Batched,
            &q50,
            Spec::CheckpointOnly,
            64,
            UncoreKind::Directory,
        );
        assert_eq!(got, want, "{label} on {threads} host threads: {got:#018x}");
    }
}

#[test]
fn threaded_digests_hold_at_every_lane_count() {
    // The same constants again: one lane stepping every core, two lanes,
    // and a lane per core (the paper's mapping) print the report the
    // host-sized default pinned above.
    let cc = Scheme::CycleByCycle;
    for (label, cores, uncore) in [
        ("thr/cc/bus8", 8, UncoreKind::Bus),
        ("thr/cc/dir16", 16, UncoreKind::Directory),
    ] {
        let want = EXPECTED
            .iter()
            .find(|(l, _)| *l == label)
            .expect("row is pinned")
            .1;
        for lanes in [1, 2, cores] {
            let got = run_on(lanes, EngineKind::Threaded, &cc, Spec::Off, cores, uncore);
            assert_eq!(got, want, "{label} on {lanes} lanes: {got:#018x}");
        }
    }
}

/// FNV-1a over every trace record of a run, `(cycle, event)` in ring
/// order, with nothing dropped.
fn trace_digest(sim: &mut Simulation) -> (u64, SimReport) {
    sim.observability(
        ObsConfig::default()
            .with_sample_every(700)
            .with_trace_capacity(1 << 20),
    );
    let report = sim.run().expect("run succeeds");
    let obs = report.obs.as_ref().expect("traced");
    assert_eq!(obs.dropped, 0, "the ring holds the whole run");
    let mut h = Fnv::new();
    for r in &obs.records {
        h.u64(r.cycle.as_u64());
        h.bytes(format!("{:?}", r.event).as_bytes());
    }
    h.u64(obs.records.len() as u64);
    (h.0, report)
}

#[test]
fn sequential_trace_records_keep_their_order() {
    // The digests above pin how many records a run traces, not their
    // order: the phase records of a one-cycle window could come out in
    // core order rather than in the order the burst draws pick the cores,
    // and every count would still match. Pinned here, record by record,
    // for cycle-by-cycle windows and for the replay windows after
    // rollbacks (whose draws feed every greedy burst after them).
    let mut cc = Simulation::new(Benchmark::Fft);
    cc.cores(8)
        .scheme(Scheme::CycleByCycle)
        .engine(EngineKind::Sequential)
        .commit_target(20_000)
        .seed(7);
    let (cc_digest, _) = trace_digest(&mut cc);

    let mut b16 = Simulation::new(Benchmark::WaterNsquared);
    b16.cores(8)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Sequential)
        .commit_target(40_000)
        .seed(7)
        .speculation(SpeculationConfig::speculative(
            1000,
            ViolationSelect::only(&[ViolationKind::Map]),
        ));
    let (b16_digest, report) = trace_digest(&mut b16);
    assert!(report.kernel.get("rollbacks") > 0, "{}", report.kernel);

    assert_eq!(
        (cc_digest, b16_digest),
        (0x5132_0e21_9419_6bfb, 0xead7_84c2_1fea_21f2),
        "trace digests changed: ({cc_digest:#018x}, {b16_digest:#018x})"
    );
}

#[test]
fn rollback_rows_actually_roll_back() {
    // Guards the matrix itself: the rollback-all rows are only worth
    // pinning while the configuration really produces rollbacks.
    let r = Simulation::new(Benchmark::WaterNsquared)
        .cores(8)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .commit_target(40_000)
        .seed(7)
        .speculation(SpeculationConfig::speculative(1000, ViolationSelect::all()))
        .run()
        .expect("run succeeds");
    assert!(r.kernel.get("rollbacks") > 0, "no rollbacks: {}", r.kernel);
    assert!(r.kernel.get("checkpoints") > 0);

    // The directory row rolls back too, and its line tables compact.
    let r = Simulation::new(Benchmark::Barnes)
        .cores(16)
        .uncore(UncoreKind::Directory)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .commit_target(40_000)
        .seed(7)
        .speculation(SpeculationConfig::speculative(1000, ViolationSelect::all()))
        .run()
        .expect("run succeeds");
    assert!(r.kernel.get("rollbacks") > 0, "no rollbacks: {}", r.kernel);
    assert!(r.uncore.get("dir_transactions") > 0, "{}", r.uncore);
}
