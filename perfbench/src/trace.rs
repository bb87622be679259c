//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call into
//! a layer; nothing inside the program is instrumented. Each span carries a
//! name, start, end, parent and the id of the pass or request it belongs
//! to. Spans stay in memory until [`take`], and the workload writes them
//! out when it ends. With recording off, [`span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Pass or request id shared by every span of one unit of work.
    pub id: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// [`span`] when `record` is set, a no-op guard otherwise: lets a traced
/// run interleave traced and dark units of work.
pub fn span_if(record: bool, name: &'static str, id: u64) -> Guard {
    if record {
        span(name, id)
    } else {
        Guard(None)
    }
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` for unit of work `id`, nested under the
/// innermost span open on this thread.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut all = spans().lock().expect("span store poisoned");
        all.push(Span {
            name,
            id,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        if let Ok(mut all) = spans().lock() {
            if let Some(s) = all.get_mut(idx) {
                s.end_ns = end;
            }
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == idx) {
                s.truncate(pos);
            }
        });
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans().lock().expect("span store poisoned"))
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_t) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_t;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            sp("pass", None, 0, 100),
            sp("a", Some(0), 10, 30),
            // Overlapping children (parallel work) are counted once.
            sp("b", Some(0), 20, 50),
            // A child running past its parent is clipped to the parent.
            sp("c", Some(0), 90, 120),
            sp("a.inner", Some(1), 12, 18),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 40 - 10, 14, 30, 30, 6]);
        let by = by_name(&spans);
        assert_eq!(by["pass"].self_ns, 50);
        assert_eq!(by["pass"].total_ns, 100);
        assert_eq!(by["a"].count, 1);
    }

    #[test]
    fn recorder_nests_on_one_thread_and_is_free_when_off() {
        set_enabled(true);
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        set_enabled(false);
        drop(span("ignored", 0));
        let all = take();
        let outer = all.iter().position(|s| s.name == "outer").unwrap();
        let inner = all.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert!(inner.start_ns >= all[outer].start_ns && inner.end_ns <= all[outer].end_ns);
        assert!(!all.iter().any(|s| s.name == "ignored"));
    }
}
