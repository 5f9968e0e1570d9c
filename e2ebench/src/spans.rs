//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into the system, with the
//! span that caused it as its parent and the request (device, sweep cell
//! or submission) it belongs to. Spans are kept in memory while the run
//! measures and written out when it ends. Recording is off unless
//! [`enable`] was called: the untraced run never calls [`span`] at all,
//! and a disabled [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// The enclosing span's id, or 0 for a root span.
    pub parent: u64,
    /// `layer.operation`; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Request id: device id, sweep cell index or submission index.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
// Ids only need to be unique; they publish no other data.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread as `(id, request)`, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Spans finished on this thread since its last root span closed.
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |&(id, _)| id);
        s.push((id, req));
        parent
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let root = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.pop();
        s.is_empty()
    });
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.push(Span {
            id,
            parent,
            name,
            req,
            start,
            end,
        });
        // Hand finished trees to the shared list when a root closes, so
        // spans recorded on short-lived worker threads are not lost.
        if root {
            FINISHED
                .lock()
                .expect("span list poisoned by a panicking recorder")
                .append(&mut l);
        }
    });
    out
}

/// The request of the innermost open span on this thread, or 0.
pub fn current_req() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |&(_, req)| req))
}

/// Removes and returns every span finished so far, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("span list poisoned by a panicking recorder"),
    );
    spans.sort_by_key(|s| s.id);
    spans
}

/// A copy of every span finished so far, ordered by id.
pub fn snapshot() -> Vec<Span> {
    let mut spans = FINISHED
        .lock()
        .expect("span list poisoned by a panicking recorder")
        .clone();
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration() - covered.min(s.duration()))
        })
        .collect()
}

/// Per span name: `(count, total duration, total self time)`, ns.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += selfs[&s.id];
    }
    out
}

/// Self time per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_default() += selfs[&s.id];
    }
    out
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id, s.parent, s.name, s.req, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 7,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // device [0, 100): trace [10, 30), sim [30, 90) with two
        // overlapping classify children [40, 60) and [50, 70), plus a
        // child that pokes past its parent's end [85, 95).
        let tree = [
            s(1, 0, "fleet.device", 0, 100),
            s(2, 1, "tracegen.trace", 10, 30),
            s(3, 1, "sim.simulate", 30, 90),
            s(4, 3, "apps.classify", 40, 60),
            s(5, 3, "apps.classify", 50, 70),
            s(6, 3, "apps.classify", 85, 95),
        ];
        let selfs = self_times(&tree);
        assert_eq!(selfs[&1], 100 - 20 - 60);
        assert_eq!(selfs[&2], 20);
        // 60 - (union [40,70) = 30) - (clipped [85,90) = 5).
        assert_eq!(selfs[&3], 25);
        assert_eq!(selfs[&4], 20);
        let layers = self_by_layer(&tree);
        assert_eq!(layers["fleet"], 20);
        assert_eq!(layers["sim"], 25);
        assert_eq!(layers["apps"], 20 + 20 + 10);
        assert_eq!(layers["tracegen"], 20);
        // Without span 6, self times add up to the root's duration plus
        // the [50, 60) stretch that siblings 4 and 5 both cover, minus
        // the [85, 90) stretch only 6 covered.
        let nested: u64 = tree[..5].iter().map(|t| selfs[&t.id]).sum();
        assert_eq!(nested, 100 + 10 - 5);
        let named = by_name(&tree);
        assert_eq!(named["apps.classify"], (3, 50, 50));
    }

    #[test]
    fn recorder_nests_spans_per_thread() {
        enable();
        let _ = take();
        span("a.outer", 1, || {
            span("b.inner", 1, || std::hint::black_box(3));
            std::thread::scope(|scope| {
                scope.spawn(|| span("c.worker", 2, || ()));
            });
        });
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        let worker = spans.iter().find(|s| s.name == "c.worker").unwrap();
        assert_eq!(inner.parent, outer.id);
        // Another thread starts its own tree.
        assert_eq!(worker.parent, 0);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }
}
