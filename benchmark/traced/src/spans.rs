//! An in-memory span recorder and the counters recorded at the same
//! boundaries.
//!
//! Each thread appends spans to its own buffer; a fan-out worker hands
//! its buffer back when it finishes and the driving thread adopts it
//! under the fan-out span. Nothing is written out until the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer entry point (`layer.what`).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one, as an index into the same buffer.
    pub parent: Option<usize>,
    /// The training round (0 during set-up).
    pub round: u32,
    /// 0 for the driving thread, `1..` for fan-out workers.
    pub thread: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
    thread: u32,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span on this thread, nested in the innermost open one.
pub fn begin(name: &'static str) -> usize {
    let start_ns = now_ns();
    BUFFER.with_borrow_mut(|b| {
        let idx = b.spans.len();
        b.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: b.open.last().copied(),
            round: b.round,
            thread: b.thread,
        });
        b.open.push(idx);
        idx
    })
}

/// Closes span `idx`, which must be the innermost open span.
pub fn end(idx: usize) {
    let end_ns = now_ns();
    BUFFER.with_borrow_mut(|b| {
        let top = b.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        b.spans[idx].end_ns = end_ns;
    });
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(usize);

impl Guard {
    /// The span's index in this thread's buffer.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        end(self.0);
    }
}

/// Opens a span that closes at the end of the enclosing scope.
pub fn span(name: &'static str) -> Guard {
    Guard(begin(name))
}

/// Tags this thread's next spans with `round` and `thread`.
pub fn set_context(round: u32, thread: u32) {
    BUFFER.with_borrow_mut(|b| {
        b.round = round;
        b.thread = thread;
    });
}

/// The round this thread's spans are tagged with.
pub fn current_round() -> u32 {
    BUFFER.with_borrow(|b| b.round)
}

/// The innermost open span on this thread.
pub fn innermost() -> Option<usize> {
    BUFFER.with_borrow(|b| b.open.last().copied())
}

/// Takes every span this thread recorded.
pub fn take() -> Vec<Span> {
    BUFFER.with_borrow_mut(|b| std::mem::take(&mut b.spans))
}

/// Appends a worker's spans under `parent`, this thread's span.
pub fn adopt(worker: Vec<Span>, parent: usize) {
    BUFFER.with_borrow_mut(|b| {
        let base = b.spans.len();
        b.spans.extend(worker.into_iter().map(|s| Span {
            parent: Some(s.parent.map_or(parent, |p| base + p)),
            ..s
        }));
    });
}

/// Work counted at the layer boundaries, summed over the run.
#[derive(Debug, Default)]
pub struct Counts {
    /// Plans resolved (`PlanSelector::plan_for_round`).
    pub plans: AtomicU64,
    /// Participants whose replica trained.
    pub trainees: AtomicU64,
    /// Mini-batches gathered.
    pub batches: AtomicU64,
    /// Training steps (forward + backward + update).
    pub steps: AtomicU64,
    /// FLOPs of those steps, from the model's cost profile.
    pub flops: AtomicU64,
    /// Codec calls (cut boundary both ways, model deltas).
    pub codec_calls: AtomicU64,
    /// Wire bytes those calls measured.
    pub codec_wire_bytes: AtomicU64,
    /// The same payloads' fp32 bytes.
    pub codec_raw_bytes: AtomicU64,
    /// Models aggregated (per half for split schemes).
    pub aggregate_replicas: AtomicU64,
    /// Bytes of the aggregated snapshots.
    pub aggregate_bytes: AtomicU64,
    /// Test samples evaluated.
    pub eval_samples: AtomicU64,
    /// Tasks in the rounds' discrete-event simulations.
    pub des_tasks: AtomicU64,
}

impl Counts {
    /// Adds `n` to a counter. Counters publish no other data.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A counter's value.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The run's counters.
pub fn counts() -> &'static Counts {
    static COUNTS: OnceLock<Counts> = OnceLock::new();
    COUNTS.get_or_init(Counts::default)
}

/// Simulated time and traffic the pricing layer charged, summed over
/// rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    /// Client compute seconds.
    pub compute_s: f64,
    /// Uplink seconds.
    pub uplink_s: f64,
    /// Downlink seconds.
    pub downlink_s: f64,
    /// Server seconds, slot-queue wait included.
    pub server_s: f64,
    /// Backhaul seconds.
    pub backhaul_s: f64,
    /// Encoded bytes up.
    pub bytes_up: f64,
    /// Encoded bytes down.
    pub bytes_down: f64,
    /// Retransmissions.
    pub retries: f64,
    /// Clients lost to crashes or the deadline.
    pub lost_clients: f64,
    /// Airtime bytes that delivered nothing.
    pub wasted_bytes: f64,
}

/// The run's simulated totals.
pub fn sim_totals() -> &'static Mutex<SimTotals> {
    static TOTALS: OnceLock<Mutex<SimTotals>> = OnceLock::new();
    TOTALS.get_or_init(|| Mutex::new(SimTotals::default()))
}
