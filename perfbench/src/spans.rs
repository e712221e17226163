//! Span trees from a `cbws_telemetry::Spans` collection: each span's
//! parent, request id and self time, written out as JSON lines.

use cbws_telemetry::Spans;
use std::fmt::Write as _;
use std::path::Path;

/// One closed span with its derived fields.
pub struct Node {
    pub name: String,
    pub lane: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    /// The `req` attribute of the span or its nearest ancestor.
    pub req: Option<String>,
    /// Duration minus the part of it covered by child spans.
    pub self_us: u64,
}

/// Links every closed span to its parent: the innermost enclosing span on
/// its own lane, or — for a top-level span on another thread's lane — the
/// innermost span of the `home` lane that encloses it in time (the call
/// that started the thread's work).
pub fn tree(spans: &Spans, home: usize) -> Vec<Node> {
    let lanes = spans.lanes();
    let records: Vec<_> = spans
        .records()
        .into_iter()
        .filter(|r| r.dur_us.is_some())
        .collect();
    let end = |i: usize| records[i].start_us + records[i].dur_us.unwrap_or(0);
    let encloses = |p: usize, c: usize| {
        p != c && records[p].start_us <= records[c].start_us && end(c) <= end(p)
    };
    let parents: Vec<Option<usize>> = (0..records.len())
        .map(|c| {
            let r = &records[c];
            let (lane, depth) = if r.depth > 0 {
                (r.lane, Some(r.depth - 1))
            } else if r.lane != home {
                (home, None)
            } else {
                return None;
            };
            (0..records.len())
                .filter(|&p| {
                    records[p].lane == lane
                        && depth.is_none_or(|d| records[p].depth == d)
                        && encloses(p, c)
                })
                .max_by_key(|&p| (records[p].depth, records[p].start_us))
        })
        .collect();
    let mut nodes: Vec<Node> = records
        .iter()
        .enumerate()
        .map(|(i, r)| Node {
            name: r.name.clone(),
            lane: lanes.get(r.lane).cloned().unwrap_or_default(),
            start_us: r.start_us,
            end_us: end(i),
            parent: parents[i],
            req: r
                .attrs
                .iter()
                .find(|(k, _)| k == "req")
                .map(|(_, v)| v.clone()),
            self_us: 0,
        })
        .collect();
    // Parents begin before their children, so one pass in begin order
    // inherits request ids from the top down.
    for i in 0..nodes.len() {
        if nodes[i].req.is_none() {
            nodes[i].req = nodes[i].parent.and_then(|p| nodes[p].req.clone());
        }
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for n in &nodes {
        if let Some(p) = n.parent {
            children[p].push((n.start_us, n.end_us));
        }
    }
    for (n, mut kids) in nodes.iter_mut().zip(children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, n.start_us);
        for (s, e) in kids {
            let (s, e) = (s.max(reach), e.min(n.end_us));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        n.self_us = (n.end_us - n.start_us).saturating_sub(covered);
    }
    nodes
}

/// Writes the nodes as JSON lines, one span per line.
pub fn write(nodes: &[Node], path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for n in nodes {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "{{\"name\": {:?}, \"lane\": {:?}, \"start_us\": {}, \"end_us\": {}, \
             \"parent\": {}, \"req\": {}, \"self_us\": {}}}",
            n.name,
            n.lane,
            n.start_us,
            n.end_us,
            opt(n.parent.map(|p| p.to_string())),
            opt(n.req.as_ref().map(|r| format!("{r:?}"))),
            n.self_us
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_inherit() {
        let spans = Spans::enabled();
        let home = spans.lane("bench");
        spans.adopt_lane(home);
        {
            let outer = spans.begin("outer");
            outer.attr("req", 7);
            std::thread::sleep(std::time::Duration::from_millis(3));
            let _inner = spans.begin("inner");
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let nodes = tree(&spans, home);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[1].req.as_deref(), Some("7"));
        let outer = &nodes[0];
        assert_eq!(
            outer.self_us,
            (outer.end_us - outer.start_us) - (nodes[1].end_us - nodes[1].start_us)
        );
    }
}
