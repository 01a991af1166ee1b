//! Spans recorded from the benchmark's own files, kept in memory and
//! written out when the run ends, and the self-time arithmetic behind the
//! per-workload waterfall.
//!
//! A root span is one client-observed operation (a query round trip, an
//! apply round trip, the set-up). Its children are the layer calls that
//! operation is made of, timed around direct calls into each layer's
//! public functions on the same payload and laid end to end from the
//! root's start. What the children do not cover is the root's self time:
//! syscalls, wake-ups, dispatch — the part no layer function owns.

use crate::report::json_string;
use crate::stats::percentile;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u32,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Per span, where its next child laid by [`Trace::child`] starts.
    next_child_ns: Vec<u64>,
}

impl Trace {
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn push(&mut self, span: Span) -> u32 {
        self.next_child_ns.push(span.start_ns);
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn root(&mut self, name: &'static str, op: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.push(Span {
            name,
            op,
            parent: None,
            start_ns,
            end_ns,
        })
    }

    /// Adds a child of `parent` lasting `nanos`, starting where the
    /// parent's previous child ended (or at the parent's start).
    pub fn child(&mut self, parent: u32, name: &'static str, nanos: u64) -> u32 {
        let start_ns = self.next_child_ns[parent as usize];
        self.next_child_ns[parent as usize] = start_ns + nanos;
        self.push(Span {
            name,
            op: self.spans[parent as usize].op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + nanos,
        })
    }

    /// Per span, its duration minus the part of that interval its direct
    /// children cover. Children that overlap one another are counted
    /// once, and a child reaching outside its parent is clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// The waterfall of the operations rooted at spans named `root`: one
    /// row per child name with its median self time in µs, then the
    /// residual row, defined so that the rows sum to the roots' median
    /// duration — it is what the layer rows leave unexplained, and it is
    /// printed, never hidden. `None` when no such root has children.
    pub fn waterfall(&self, root: &str) -> Option<Waterfall> {
        let self_ns = self.self_times();
        // Per row name, per operation: the self time of that operation's
        // children of that name, summed (an operation may call a layer
        // more than once).
        let mut rows: Vec<(&'static str, BTreeMap<u32, u64>)> = Vec::new();
        let mut totals = Vec::new();
        let mut root_self = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                None if s.name == root && self.next_child_ns[i] > s.start_ns => {
                    totals.push((s.end_ns - s.start_ns) as f64 / 1e3);
                    root_self.push(self_ns[i] as f64 / 1e3);
                }
                Some(p) if self.spans[p as usize].name == root => {
                    let at = rows
                        .iter()
                        .position(|(name, _)| *name == s.name)
                        .unwrap_or_else(|| {
                            rows.push((s.name, BTreeMap::new()));
                            rows.len() - 1
                        });
                    *rows[at].1.entry(p).or_default() += self_ns[i];
                }
                _ => {}
            }
        }
        if totals.is_empty() {
            return None;
        }
        totals.sort_by(f64::total_cmp);
        root_self.sort_by(f64::total_cmp);
        let total_p50_us = percentile(&totals, 0.5);
        let rows: Vec<(&'static str, f64)> = rows
            .into_iter()
            .map(|(name, per_op)| {
                let mut us: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e3).collect();
                us.sort_by(f64::total_cmp);
                (name, percentile(&us, 0.5))
            })
            .collect();
        let explained: f64 = rows.iter().map(|(_, us)| us).sum();
        Some(Waterfall {
            root: root.to_string(),
            operations: totals.len(),
            total_p50_us,
            residual_us: total_p50_us - explained,
            root_self_p50_us: percentile(&root_self, 0.5),
            rows,
        })
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                json_string(s.name),
                s.op,
                parent,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[derive(Debug)]
pub struct Waterfall {
    pub root: String,
    pub operations: usize,
    pub total_p50_us: f64,
    pub rows: Vec<(&'static str, f64)>,
    /// `total_p50_us` minus the sum of `rows`.
    pub residual_us: f64,
    /// Median of the roots' own self time, for comparison with
    /// `residual_us` (a sum of medians is not the median of sums).
    pub root_self_p50_us: f64,
}

impl Waterfall {
    /// The median self time of the row called `name`, 0 when absent.
    #[cfg(test)]
    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |r| r.1)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "waterfall {} ({} traced operations, p50 {:.2} us)\n",
            self.root, self.operations, self.total_p50_us
        );
        let share = |us: f64| 100.0 * us / self.total_p50_us.max(f64::MIN_POSITIVE);
        for (name, us) in &self.rows {
            out.push_str(&format!(
                "  {name:<34} {us:>12.2} us {:>6.1} %\n",
                share(*us)
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>12.2} us {:>6.1} %   (median root self time {:.2} us)\n",
            "residual",
            self.residual_us,
            share(self.residual_us),
            self.root_self_p50_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Trace::default();
        let root = t.root("root", 0, 100, 200);
        // Two children overlapping on [130, 150), one reaching past the
        // parent's end, one grandchild that must not count against root.
        for (name, a, b, parent) in [
            ("a", 110, 150, root),
            ("b", 130, 160, root),
            ("c", 190, 240, root),
        ] {
            t.push(Span {
                name,
                op: 0,
                parent: Some(parent),
                start_ns: a,
                end_ns: b,
            });
        }
        t.push(Span {
            name: "a.inner",
            op: 0,
            parent: Some(1),
            start_ns: 110,
            end_ns: 120,
        });
        let own = t.self_times();
        // Covered: [110,160) = 50 and [190,200) = 10 of the root's 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 30, "a minus its grandchild");
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 50, "a child is not clipped in its own row");
        assert_eq!(own[4], 10);
    }

    #[test]
    fn children_are_laid_end_to_end_and_the_waterfall_sums_to_the_root() {
        let mut t = Trace::default();
        for (op, total) in [(0u32, 1_000u64), (1, 1_200), (2, 1_100)] {
            let root = t.root(
                "rt",
                op,
                5_000 * u64::from(op),
                5_000 * u64::from(op) + total,
            );
            let a = t.child(root, "encode", 60);
            let b = t.child(root, "run", 300 + 10 * u64::from(op));
            t.child(root, "encode", 40);
            assert_eq!(t.spans()[b as usize].start_ns, t.spans()[a as usize].end_ns);
            assert_eq!(t.spans()[a as usize].op, op);
        }
        t.root("other", 9, 0, 50);
        let w = t.waterfall("rt").unwrap();
        assert_eq!(w.operations, 3);
        assert_eq!(w.total_p50_us, 1.1);
        assert_eq!(w.row("encode"), 0.1);
        assert_eq!(w.row("run"), 0.31);
        let sum: f64 = w.rows.iter().map(|r| r.1).sum::<f64>() + w.residual_us;
        assert!((sum - w.total_p50_us).abs() < 1e-9);
        assert!((w.root_self_p50_us - 0.68).abs() < 1e-9);
        assert!(t.waterfall("missing").is_none());
        assert!(
            t.waterfall("other").is_none(),
            "a root without children has no waterfall"
        );
    }

    #[test]
    fn trace_json_is_well_formed() {
        let mut t = Trace::default();
        let r = t.root("net.client.roundtrip", 7, 10, 90);
        t.child(r, "core.engine.run", 40);
        let parsed = crate::report::parse_json(&t.to_json()).unwrap();
        let spans = parsed.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("start_ns").unwrap().as_f64(), Some(10.0));
        assert_eq!(
            spans[0].get("name").unwrap().as_str(),
            Some("net.client.roundtrip")
        );
    }
}
