//! The traced pass: benchmark-owned wrappers around the core and uncore
//! models that record, at every call the engine makes into a layer, a count
//! and the busy time, without touching the program under test.
//!
//! Span tree: `run` > {`cmp.setup.build`, `core.engine` > {`cmp.core.tick`,
//! `cmp.<interconnect>.service`, `core.checkpoint.*`}}. A layer's self time
//! is its span minus its children; the wrappers are leaves, so the engine's
//! self time is the `core.engine` span minus everything the wrappers saw on
//! the engine's own thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use slacksim::slacksim_cmp::{CmpCore, CmpUncore, MemEvent};
use slacksim::slacksim_core::engine::{
    BatchedEngine, CoreModel, SequentialEngine, ServiceSink, ThreadedEngine, TickCtx, UncoreModel,
};
use slacksim::slacksim_core::event::{CoreId, Inbox, Timestamped};
use slacksim::slacksim_core::stats::Counters;
use slacksim::{
    Checkpointable, Cycle, EngineError, EngineKind, SimReport, UncoreKind, WorkloadParams,
};

use crate::workloads::Workload;

/// A call boundary the traced pass records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The whole traced run: model construction plus the engine.
    Run,
    /// `CmpCore::build_cmp` and `CmpUncore::new`.
    Build,
    /// `Engine::new(..).run()`.
    Engine,
    /// `CoreModel::tick` / `CoreModel::run_window`.
    CoreTick,
    /// `UncoreModel::service`.
    UncoreService,
    /// `Checkpointable::capture_delta`.
    CpCapture,
    /// `Checkpointable::apply_delta`.
    CpApply,
    /// `Checkpointable::restore_from`.
    CpRestore,
    /// `Clone::clone` of a model (full-mode checkpoints and rollbacks).
    CpClone,
}

const LAYERS: usize = 9;

/// Calls timed out of all `tick` calls: one in `TICK_SAMPLE`. Timing every
/// tick costs two clock reads per ~100 ns of work, well past the 25 %
/// overhead the instrument allows itself; every call is still counted.
const TICK_SAMPLE: u64 = 8;

/// Raw spans kept per layer; the aggregate covers every call.
const RAW_SPANS_PER_LAYER: usize = 512;

const HIST_BUCKETS: usize = 32;

/// Count and busy time of one layer on one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stat {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Nanoseconds over the timed calls.
    pub ns: u64,
    /// Longest timed call.
    pub max_ns: u64,
    /// Timed calls by `floor(log2(ns)) + 1`, the last bucket open-ended.
    pub hist: [u64; HIST_BUCKETS],
}

impl Stat {
    fn record(&mut self, ns: u64) {
        self.timed += 1;
        self.ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &Stat) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
    }

    /// Busy nanoseconds over all calls: the timed ones scaled up by the
    /// sampling ratio.
    pub fn busy_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 * self.calls as f64 / self.timed as f64
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Identifier, unique within the traced run.
    pub id: u64,
    /// The span that caused this one; 0 for the root.
    pub parent: u64,
    /// Where it was recorded.
    pub layer: Layer,
    /// Host thread, numbered in order of first use.
    pub lane: u32,
    /// Start and end in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Relaxed);
}

fn lane() -> u32 {
    LANE.with(|l| *l)
}

struct Tracer {
    epoch: Instant,
    service_name: &'static str,
    agg: Mutex<BTreeMap<(Layer, u32), Stat>>,
    raw: Mutex<Vec<RawSpan>>,
    raw_left: [AtomicUsize; LAYERS],
    next_id: AtomicU64,
    /// Parent of every span the wrappers record.
    engine_span: AtomicU64,
}

impl Tracer {
    fn new(service_name: &'static str) -> Self {
        Tracer {
            epoch: Instant::now(),
            service_name,
            agg: Mutex::new(BTreeMap::new()),
            raw: Mutex::new(Vec::new()),
            raw_left: std::array::from_fn(|_| AtomicUsize::new(RAW_SPANS_PER_LAYER)),
            next_id: AtomicU64::new(1),
            engine_span: AtomicU64::new(0),
        }
    }

    fn layer_name(&self, layer: Layer) -> &'static str {
        match layer {
            Layer::Run => "run",
            Layer::Build => "cmp.setup.build",
            Layer::Engine => "core.engine",
            Layer::CoreTick => "cmp.core.tick",
            Layer::UncoreService => self.service_name,
            Layer::CpCapture => "core.checkpoint.capture",
            Layer::CpApply => "core.checkpoint.apply",
            Layer::CpRestore => "core.checkpoint.restore",
            Layer::CpClone => "core.checkpoint.clone",
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn merge(&self, layer: Layer, lane: u32, stat: &Stat) {
        self.agg
            .lock()
            .expect("no tracer user panics while holding the lock")
            .entry((layer, lane))
            .or_default()
            .merge(stat);
    }

    fn keep_raw(&self, layer: Layer, parent: u64, lane: u32, start: Instant, end: Instant) {
        let left = &self.raw_left[layer as usize];
        if left.load(Relaxed) == 0 {
            return;
        }
        // Several threads may pass the check together and keep a few spans
        // more than the budget; saturate so the counter cannot wrap.
        let _ = left.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1));
        let id = self.next_id.fetch_add(1, Relaxed);
        self.push_raw(id, parent, layer, lane, start, end);
    }

    fn push_raw(
        &self,
        id: u64,
        parent: u64,
        layer: Layer,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        let span = RawSpan {
            id,
            parent,
            layer,
            lane,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        };
        self.raw
            .lock()
            .expect("no tracer user panics while holding the lock")
            .push(span);
    }

    /// Times `f` as one span of `layer` on the calling thread.
    fn span<R>(&self, layer: Layer, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Relaxed);
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        let mut stat = Stat {
            calls: 1,
            ..Stat::default()
        };
        stat.record((end - start).as_nanos() as u64);
        self.merge(layer, lane(), &stat);
        self.push_raw(id, parent, layer, lane(), start, end);
        result
    }
}

/// The operations a wrapper times, as indices into [`Local::stats`].
const MAIN: usize = 0;
const CAPTURE: usize = 1;
const APPLY: usize = 2;
const RESTORE: usize = 3;
const CLONE: usize = 4;

/// A wrapper's private counters: plain integers on the hot path, merged
/// into the tracer when the wrapper is dropped.
struct Local {
    tracer: Arc<Tracer>,
    layers: [Layer; 5],
    lane: u32,
    stats: [Stat; 5],
}

impl Local {
    fn new(tracer: Arc<Tracer>, main: Layer) -> Self {
        Local {
            tracer,
            layers: [
                main,
                Layer::CpCapture,
                Layer::CpApply,
                Layer::CpRestore,
                Layer::CpClone,
            ],
            lane: u32::MAX,
            stats: Default::default(),
        }
    }

    /// Counts one call of `op` and times it when the call count is a
    /// multiple of `sample`.
    #[inline]
    fn timed<R>(&mut self, op: usize, sample: u64, f: impl FnOnce() -> R) -> R {
        let stat = &mut self.stats[op];
        stat.calls += 1;
        if !stat.calls.is_multiple_of(sample) {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        stat.record((end - start).as_nanos() as u64);
        if self.lane == u32::MAX {
            self.lane = lane();
        }
        let parent = self.tracer.engine_span.load(Relaxed);
        self.tracer
            .keep_raw(self.layers[op], parent, self.lane, start, end);
        result
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        for (layer, stat) in self.layers.iter().zip(&self.stats) {
            if stat.calls > 0 {
                // A wrapper that was only ever counted, never timed, has no
                // lane of its own; it ran where it is dropped.
                let lane = if self.lane == u32::MAX {
                    lane()
                } else {
                    self.lane
                };
                self.tracer.merge(*layer, lane, stat);
            }
        }
    }
}

/// A model with every call into it counted and timed. Forwards everything,
/// changes nothing: a traced run has the fingerprint of an untraced one.
pub struct Traced<M> {
    inner: M,
    local: Local,
}

impl<M> Traced<M> {
    fn new(inner: M, tracer: &Arc<Tracer>, main: Layer) -> Self {
        Traced {
            inner,
            local: Local::new(Arc::clone(tracer), main),
        }
    }
}

impl<M: Clone> Clone for Traced<M> {
    fn clone(&self) -> Self {
        // The copy starts its own counters, and the time to make it is the
        // first thing they record.
        let mut local = Local::new(Arc::clone(&self.local.tracer), self.local.layers[MAIN]);
        let inner = local.timed(CLONE, 1, || self.inner.clone());
        Traced { inner, local }
    }
}

impl<M: Checkpointable> Checkpointable for Traced<M> {
    type Delta = M::Delta;

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> M::Delta {
        let inner = &mut self.inner;
        self.local
            .timed(CAPTURE, 1, || inner.capture_delta(since_gen))
    }

    fn apply_delta(&mut self, delta: M::Delta) {
        let inner = &mut self.inner;
        self.local.timed(APPLY, 1, || inner.apply_delta(delta));
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let inner = &mut self.inner;
        self.local
            .timed(RESTORE, 1, || inner.restore_from(&base.inner, since_gen));
    }
}

impl CoreModel for Traced<CmpCore> {
    type Event = MemEvent;

    #[inline]
    fn tick(&mut self, ctx: &mut TickCtx<'_, MemEvent>) -> u32 {
        let inner = &mut self.inner;
        self.local.timed(MAIN, TICK_SAMPLE, || inner.tick(ctx))
    }

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<MemEvent>,
        staged: &mut Vec<Timestamped<MemEvent>>,
    ) -> u64 {
        let inner = &mut self.inner;
        self.local
            .timed(MAIN, 1, || inner.run_window(from, to, inbox, staged))
    }

    fn committed(&self) -> u64 {
        self.inner.committed()
    }

    fn counters(&self) -> Counters {
        CoreModel::counters(&self.inner)
    }
}

impl UncoreModel<MemEvent> for Traced<CmpUncore> {
    fn service(
        &mut self,
        from: CoreId,
        ev: Timestamped<MemEvent>,
        sink: &mut ServiceSink<MemEvent>,
    ) {
        let inner = &mut self.inner;
        self.local.timed(MAIN, 1, || inner.service(from, ev, sink));
    }

    fn counters(&self) -> Counters {
        UncoreModel::counters(&self.inner)
    }

    fn compact_monitors(&mut self, horizon: Cycle) {
        self.inner.compact_monitors(horizon);
    }
}

/// Aggregate of one layer on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    /// Layer name (module path of the code behind the boundary).
    pub name: &'static str,
    /// See [`Layer`].
    pub layer: Layer,
    /// Host thread, numbered in order of first use; the thread that called
    /// the engine is the lane of the `run` row.
    pub lane: u32,
    /// Counts and times.
    pub stat: Stat,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// The engine's report.
    pub report: SimReport,
    /// One row per layer and thread.
    pub rows: Vec<LayerRow>,
    /// The first spans of every layer, with their parents.
    pub spans: Vec<RawSpan>,
}

impl TraceResult {
    /// A layer's aggregate over all threads.
    pub fn total(&self, layer: Layer) -> Stat {
        let mut total = Stat::default();
        for row in self.rows.iter().filter(|r| r.layer == layer) {
            total.merge(&row.stat);
        }
        total
    }

    /// Busy nanoseconds of `layer` on the thread that ran the engine.
    pub fn busy_ns_on_engine_thread(&self, layer: Layer) -> f64 {
        let engine_lane = self
            .rows
            .iter()
            .find(|r| r.layer == Layer::Engine)
            .map_or(0, |r| r.lane);
        self.rows
            .iter()
            .filter(|r| r.layer == layer && r.lane == engine_lane)
            .map(|r| r.stat.busy_ns())
            .sum()
    }

    /// JSON object with the aggregate rows and the raw spans.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"aggregate\":[");
        for (i, row) in self.rows.iter().enumerate() {
            let hist: Vec<String> = row.stat.hist.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{}{{\"layer\":\"{}\",\"lane\":{},\"calls\":{},\"timed\":{},\"timed_ns\":{},\
                 \"busy_ns\":{:.0},\"max_ns\":{},\"log2_ns_hist\":[{}]}}",
                if i == 0 { "" } else { "," },
                row.name,
                row.lane,
                row.stat.calls,
                row.stat.timed,
                row.stat.ns,
                row.stat.busy_ns(),
                row.stat.max_ns,
                hist.join(",")
            );
        }
        s.push_str("],\"spans\":[");
        let name_of = |layer| {
            self.rows
                .iter()
                .find(|r| r.layer == layer)
                .map_or("?", |r| r.name)
        };
        for (i, span) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                span.id,
                span.parent,
                name_of(span.layer),
                span.lane,
                span.start_ns,
                span.end_ns
            );
        }
        s.push_str("]}");
        s
    }
}

/// Runs `w` once with the models wrapped, building the engine directly.
///
/// # Errors
///
/// Whatever the engine returns.
pub fn traced_run(w: &Workload, seed: u64, commit_target: u64) -> Result<TraceResult, EngineError> {
    let service_name = match w.uncore {
        UncoreKind::Bus => "cmp.bus.service",
        UncoreKind::Directory => "cmp.directory.service",
    };
    let tracer = Arc::new(Tracer::new(service_name));
    let report = tracer.span(Layer::Run, 0, |run| {
        let (cores, uncore) = tracer.span(Layer::Build, run, |_| {
            let cmp = w.cmp_config();
            let cores: Vec<_> = CmpCore::build_cmp(&cmp, |i| {
                w.benchmark.stream(&WorkloadParams::new(i, w.cores, seed))
            })
            .into_iter()
            .map(|c| Traced::new(c, &tracer, Layer::CoreTick))
            .collect();
            let uncore = Traced::new(CmpUncore::new(&cmp), &tracer, Layer::UncoreService);
            (cores, uncore)
        });
        let cfg = w.engine_config(seed, commit_target);
        tracer.span(Layer::Engine, run, |engine| {
            tracer.engine_span.store(engine, Relaxed);
            match w.engine {
                EngineKind::Sequential => SequentialEngine::new(cores, uncore, cfg).run(),
                EngineKind::Batched => BatchedEngine::new(cores, uncore, cfg).run(),
                EngineKind::Threaded => ThreadedEngine::new(cores, uncore, cfg).run(),
            }
        })
    })?;
    // Every wrapper is dropped by now (the engine consumed them), so the
    // aggregate is complete.
    let rows = tracer
        .agg
        .lock()
        .expect("no tracer user panics while holding the lock")
        .iter()
        .map(|(&(layer, lane), stat)| LayerRow {
            name: tracer.layer_name(layer),
            layer,
            lane,
            stat: stat.clone(),
        })
        .collect();
    let mut spans = std::mem::take(
        &mut *tracer
            .raw
            .lock()
            .expect("no tracer user panics while holding the lock"),
    );
    spans.sort_by_key(|s| s.start_ns);
    Ok(TraceResult {
        report,
        rows,
        spans,
    })
}
