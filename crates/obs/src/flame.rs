//! Flamegraph export from the recorded span tree.
//!
//! Two renderings of the same aggregation:
//!
//! * [`collapsed`] — Brendan Gregg's collapsed-stack text format
//!   (`root;child;leaf <self-µs>`), one line per stack with non-zero self
//!   time, sorted lexicographically. Pipe into any external
//!   `flamegraph.pl`-compatible tool.
//! * [`html`] — a self-contained icicle-style flamegraph (inline CSS + a
//!   few lines of JS for click-to-zoom; no external assets, opens from
//!   `file://`). Frame tooltips carry total/self time, span count and —
//!   when the `mem-profile` feature recorded them — peak bytes.
//!
//! Aggregation matches [`crate::summary`]: spans group by parent chain and
//! name, with `level = N` fields split into ` [L<n>]` rows, so the
//! flamegraph's root frames are exactly the summary's (and the chrome
//! trace's) root spans. Children are laid out in deterministic
//! (lexicographic) order, so the same recording always renders the same
//! file.

use std::collections::HashMap;

use crate::{events_snapshot, SpanEvent};

/// One aggregated frame of the flamegraph tree.
#[derive(Debug, Clone)]
pub struct FlameNode {
    /// Span name plus ` [L<n>]` when the spans carried a `level` field.
    pub key: String,
    /// Total wall nanoseconds across all spans aggregated into this frame.
    pub total_ns: u64,
    /// `total_ns` minus the children's totals (clamped at 0).
    pub self_ns: u64,
    /// Number of spans aggregated.
    pub count: usize,
    /// Largest `mem_peak_bytes` of any aggregated span.
    pub mem_peak_bytes: u64,
    pub children: Vec<FlameNode>,
}

/// Builds the aggregated frame tree. The returned vector holds the root
/// frames in deterministic (lexicographic) order.
pub fn build_tree(events: &[SpanEvent]) -> Vec<FlameNode> {
    struct Agg {
        key: String,
        total_ns: u64,
        count: usize,
        mem_peak: u64,
        children: Vec<usize>,
        child_by_key: HashMap<String, usize>,
    }
    // Index 0 is a virtual root, as in `summary::build`.
    let mut nodes: Vec<Agg> = vec![Agg {
        key: String::new(),
        total_ns: 0,
        count: 0,
        mem_peak: 0,
        children: Vec::new(),
        child_by_key: HashMap::new(),
    }];
    let mut node_of_event: HashMap<u64, usize> = HashMap::new();

    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.id); // parents have smaller ids

    for e in sorted {
        let parent_idx = if e.parent == 0 {
            0
        } else {
            node_of_event.get(&e.parent).copied().unwrap_or(0)
        };
        let key = match e.level() {
            Some(l) => format!("{} [L{l}]", e.name),
            None => e.name.to_string(),
        };
        let idx = match nodes[parent_idx].child_by_key.get(&key) {
            Some(&i) => i,
            None => {
                let i = nodes.len();
                nodes.push(Agg {
                    key: key.clone(),
                    total_ns: 0,
                    count: 0,
                    mem_peak: 0,
                    children: Vec::new(),
                    child_by_key: HashMap::new(),
                });
                nodes[parent_idx].children.push(i);
                nodes[parent_idx].child_by_key.insert(key, i);
                i
            }
        };
        nodes[idx].total_ns += e.dur_ns;
        nodes[idx].count += 1;
        nodes[idx].mem_peak = nodes[idx].mem_peak.max(e.mem_peak_bytes);
        node_of_event.insert(e.id, idx);
    }

    fn convert(nodes: &[Agg], idx: usize) -> FlameNode {
        let n = &nodes[idx];
        let mut children: Vec<FlameNode> = n.children.iter().map(|&c| convert(nodes, c)).collect();
        children.sort_by(|a, b| a.key.cmp(&b.key));
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        FlameNode {
            key: n.key.clone(),
            total_ns: n.total_ns,
            self_ns: n.total_ns.saturating_sub(child_total),
            count: n.count,
            mem_peak_bytes: n.mem_peak,
            children,
        }
    }

    let mut roots: Vec<FlameNode> = nodes[0]
        .children
        .iter()
        .map(|&i| convert(&nodes, i))
        .collect();
    roots.sort_by(|a, b| a.key.cmp(&b.key));
    roots
}

/// Collapsed-stack text: `a;b;c <self-µs>` per frame with non-zero self
/// time (leaves always emitted), lines sorted.
pub fn collapsed(events: &[SpanEvent]) -> String {
    let roots = build_tree(events);
    let mut lines: Vec<String> = Vec::new();
    fn walk(node: &FlameNode, prefix: &str, lines: &mut Vec<String>) {
        let stack = if prefix.is_empty() {
            node.key.clone()
        } else {
            format!("{prefix};{}", node.key)
        };
        let self_us = node.self_ns / 1_000;
        if self_us > 0 || node.children.is_empty() {
            lines.push(format!("{stack} {self_us}"));
        }
        for c in &node.children {
            walk(c, &stack, lines);
        }
    }
    for r in &roots {
        walk(r, "", &mut lines);
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Deterministic warm color for a frame name (FNV-1a hash → hue).
fn frame_color(name: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let hue = (h % 55) as u32; // 0..55: red → orange → yellow
    let sat = 70 + (h >> 8) % 20; // 70..90 %
    let light = 52 + (h >> 16) % 10; // 52..62 %
    format!("hsl({hue},{sat}%,{light}%)")
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Self-contained HTML flamegraph (icicle layout, roots on top).
pub fn html(events: &[SpanEvent]) -> String {
    let roots = build_tree(events);
    let total_ns: u64 = roots.iter().map(|r| r.total_ns).sum();
    let denom = if total_ns == 0 { 1.0 } else { total_ns as f64 };

    // Lay frames out server-side: x/width as fractions of the whole graph.
    let mut frames = String::new();
    let mut max_depth = 0usize;
    #[allow(clippy::too_many_arguments)]
    fn walk(
        node: &FlameNode,
        x: f64,
        depth: usize,
        denom: f64,
        frames: &mut String,
        max_depth: &mut usize,
    ) -> f64 {
        let w = node.total_ns as f64 / denom;
        *max_depth = (*max_depth).max(depth);
        let pct = 100.0 * w;
        let mem = if node.mem_peak_bytes > 0 {
            format!(" | peak {}", fmt_bytes(node.mem_peak_bytes))
        } else {
            String::new()
        };
        let title = format!(
            "{} — {} ms total, {} ms self, {} span(s), {:.1}%{}",
            node.key,
            fmt_ms(node.total_ns),
            fmt_ms(node.self_ns),
            node.count,
            pct,
            mem
        );
        frames.push_str(&format!(
            "<div class=\"f\" data-x=\"{x:.6}\" data-w=\"{w:.6}\" \
             style=\"left:{:.4}%;width:{:.4}%;top:{}px;background:{}\" \
             title=\"{}\">{}</div>\n",
            x * 100.0,
            w * 100.0,
            depth * 18,
            frame_color(&node.key),
            html_escape(&title),
            html_escape(&node.key)
        ));
        let mut cx = x;
        for c in &node.children {
            cx = walk(c, cx, depth + 1, denom, frames, max_depth);
        }
        x + w
    }
    let mut x = 0.0;
    for r in &roots {
        x = walk(r, x, 0, denom, &mut frames, &mut max_depth);
    }

    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>amrviz flamegraph</title>\n\
         <style>\n\
         body{{font:12px monospace;margin:16px;background:#1e1e1e;color:#ddd}}\n\
         #g{{position:relative;height:{height}px;margin-top:8px}}\n\
         .f{{position:absolute;height:16px;line-height:16px;overflow:hidden;\
         white-space:nowrap;text-overflow:clip;border:1px solid #1e1e1e;\
         box-sizing:border-box;color:#222;cursor:pointer;font-size:11px;\
         padding-left:2px;border-radius:2px}}\n\
         .f:hover{{filter:brightness(1.2)}}\n\
         #hdr{{display:flex;gap:16px;align-items:baseline}}\n\
         button{{font:inherit;background:#333;color:#ddd;border:1px solid #555;\
         border-radius:3px;cursor:pointer}}\n\
         </style></head><body>\n\
         <div id=\"hdr\"><b>amrviz flamegraph</b>\
         <span>total {total_ms} ms across {nroots} root span(s)</span>\
         <button onclick=\"zoom(0,1)\">reset zoom</button>\
         <span>click a frame to zoom</span></div>\n\
         <div id=\"g\">\n{frames}</div>\n\
         <script>\n\
         function zoom(x0,w0){{\n\
           document.querySelectorAll('.f').forEach(function(d){{\n\
             var x=parseFloat(d.dataset.x),w=parseFloat(d.dataset.w);\n\
             var nx=(x-x0)/w0,nw=w/w0;\n\
             if(nx+nw<=0||nx>=1||nw<1e-6){{d.style.display='none';return;}}\n\
             d.style.display='block';\n\
             d.style.left=(Math.max(nx,0)*100)+'%';\n\
             d.style.width=((Math.min(nx+nw,1)-Math.max(nx,0))*100)+'%';\n\
           }});\n\
         }}\n\
         document.querySelectorAll('.f').forEach(function(d){{\n\
           d.addEventListener('click',function(){{\n\
             zoom(parseFloat(d.dataset.x),parseFloat(d.dataset.w));\n\
           }});\n\
         }});\n\
         </script>\n</body></html>\n",
        height = (max_depth + 1) * 18,
        total_ms = fmt_ms(total_ns),
        nroots = roots.len(),
        frames = frames,
    )
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Writes a flamegraph of everything recorded so far. A `.html` extension
/// selects the self-contained HTML rendering; anything else gets
/// collapsed-stack text.
pub fn write_flamegraph(path: &std::path::Path) -> std::io::Result<()> {
    let events = events_snapshot();
    let is_html = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("html") || e.eq_ignore_ascii_case("htm"));
    let body = if is_html {
        html(&events)
    } else {
        collapsed(&events)
    };
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;

    fn ev(id: u64, parent: u64, name: &'static str, level: Option<i64>, dur_ns: u64) -> SpanEvent {
        let fields = match level {
            Some(l) => vec![("level", FieldValue::Int(l))],
            None => Vec::new(),
        };
        SpanEvent {
            id,
            parent,
            trace_id: 0xfeed,
            name,
            fields,
            thread: 0,
            start_ns: id * 10,
            dur_ns,
            mem_net_bytes: 0,
            mem_peak_bytes: id * 1000,
        }
    }

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            ev(1, 0, "compress", None, 1_000_000_000),
            ev(2, 1, "compress.level", Some(0), 300_000_000),
            ev(3, 1, "compress.level", Some(1), 600_000_000),
            ev(4, 0, "extract", None, 500_000_000),
        ]
    }

    #[test]
    fn tree_computes_self_time() {
        let roots = build_tree(&sample_events());
        assert_eq!(roots.len(), 2);
        let compress = roots.iter().find(|r| r.key == "compress").unwrap();
        assert_eq!(compress.total_ns, 1_000_000_000);
        assert_eq!(compress.self_ns, 100_000_000);
        assert_eq!(compress.children.len(), 2);
        assert_eq!(compress.mem_peak_bytes, 1000);
        let extract = roots.iter().find(|r| r.key == "extract").unwrap();
        assert_eq!(extract.self_ns, extract.total_ns);
    }

    #[test]
    fn collapsed_lines_are_sorted_stacks() {
        let out = collapsed(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.contains(&"compress;compress.level [L0] 300000"));
        assert!(lines.contains(&"compress;compress.level [L1] 600000"));
        assert!(lines.contains(&"compress 100000"));
        assert!(lines.contains(&"extract 500000"));
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "collapsed output must be sorted");
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let out = html(&sample_events());
        assert!(out.starts_with("<!DOCTYPE html>"));
        assert!(out.contains("compress.level [L1]"));
        assert!(out.contains("function zoom"));
        // No external references — must open from file:// offline.
        assert!(!out.contains("http://") && !out.contains("https://"));
        assert!(out.contains("peak 1000 B") || out.contains("peak"));
    }

    #[test]
    fn empty_recording_renders() {
        assert_eq!(collapsed(&[]), "");
        let out = html(&[]);
        assert!(out.contains("0 root span(s)"));
    }

    #[test]
    fn deterministic_output() {
        let a = html(&sample_events());
        let b = html(&sample_events());
        assert_eq!(a, b);
        assert_eq!(collapsed(&sample_events()), collapsed(&sample_events()));
    }
}
