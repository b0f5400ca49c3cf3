//! Flow and query completion records (FCT / QCT / slowdowns).

use crate::Summary;

/// Traffic class of a flow, used to slice the paper's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// A response flow belonging to an incast query (QCT numerator).
    Query,
    /// A background flow (web-search / all-to-all / all-reduce).
    Background,
}

/// Completion record of one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    /// Flow identity.
    pub id: u64,
    /// Flow size in payload bytes.
    pub bytes: u64,
    /// Start time (ps).
    pub start_ps: u64,
    /// Completion time (ps); `None` if unfinished at simulation end.
    pub end_ps: Option<u64>,
    /// Class for metric slicing.
    pub class: FlowClass,
    /// Query this flow belongs to, if any.
    pub query: Option<u64>,
}

impl FlowRecord {
    /// Flow completion time in ps, if finished.
    pub fn fct_ps(&self) -> Option<u64> {
        self.end_ps.map(|e| e.saturating_sub(self.start_ps))
    }
}

/// QCT record for one incast query.
#[derive(Debug, Clone, Copy)]
pub struct QctRecord {
    /// Query identity.
    pub query: u64,
    /// Total response bytes across all flows of the query.
    pub bytes: u64,
    /// Query issue time (ps).
    pub start_ps: u64,
    /// Time the *last* response flow finished (ps); `None` if any flow is
    /// unfinished.
    pub end_ps: Option<u64>,
}

impl QctRecord {
    /// Query completion time in ps, if all flows finished.
    pub fn qct_ps(&self) -> Option<u64> {
        self.end_ps.map(|e| e.saturating_sub(self.start_ps))
    }
}

/// A set of flow records with the paper's standard aggregations.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    records: Vec<FlowRecord>,
}

impl FlowSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FlowSet::default()
    }

    /// Adds one record.
    pub fn push(&mut self, r: FlowRecord) {
        self.records.push(r);
    }

    /// All records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Number of flows that never finished.
    pub fn unfinished(&self) -> usize {
        self.records.iter().filter(|r| r.end_ps.is_none()).count()
    }

    /// FCTs in milliseconds for finished flows matching `filter`.
    pub fn fct_ms<F: Fn(&FlowRecord) -> bool>(&self, filter: F) -> Summary {
        let mut s = Summary::new();
        for r in self.records.iter().filter(|r| filter(r)) {
            if let Some(fct) = r.fct_ps() {
                s.add(fct as f64 / 1e9);
            }
        }
        s
    }

    /// FCT slowdowns (actual / ideal) for finished flows matching
    /// `filter`; `ideal_ps(bytes)` gives the no-contention FCT.
    pub fn slowdown<F, I>(&self, filter: F, ideal_ps: I) -> Summary
    where
        F: Fn(&FlowRecord) -> bool,
        I: Fn(u64) -> u64,
    {
        let mut s = Summary::new();
        for r in self.records.iter().filter(|r| filter(r)) {
            if let Some(fct) = r.fct_ps() {
                let ideal = ideal_ps(r.bytes).max(1);
                s.add(fct as f64 / ideal as f64);
            }
        }
        s
    }

    /// Groups query-class flows into per-query QCT records.
    ///
    /// A query completes when its last flow completes; if any flow is
    /// unfinished the query is unfinished. Flows without a query id are
    /// ignored.
    pub fn qcts(&self) -> Vec<QctRecord> {
        let mut map: std::collections::BTreeMap<u64, QctRecord> = std::collections::BTreeMap::new();
        for r in &self.records {
            let Some(q) = r.query else { continue };
            let e = map.entry(q).or_insert(QctRecord {
                query: q,
                bytes: 0,
                start_ps: u64::MAX,
                end_ps: Some(0),
            });
            e.bytes += r.bytes;
            e.start_ps = e.start_ps.min(r.start_ps);
            e.end_ps = match (e.end_ps, r.end_ps) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        map.into_values().collect()
    }

    /// QCTs in milliseconds for finished queries.
    pub fn qct_ms(&self) -> Summary {
        let mut s = Summary::new();
        for q in self.qcts() {
            if let Some(qct) = q.qct_ps() {
                s.add(qct as f64 / 1e9);
            }
        }
        s
    }

    /// QCT slowdowns for finished queries, with `ideal_ps(total_bytes)`.
    pub fn qct_slowdown<I: Fn(u64) -> u64>(&self, ideal_ps: I) -> Summary {
        let mut s = Summary::new();
        for q in self.qcts() {
            if let Some(qct) = q.qct_ps() {
                s.add(qct as f64 / ideal_ps(q.bytes).max(1) as f64);
            }
        }
        s
    }
}

/// The paper's "small flow" cutoff for tail-FCT slices (<100 KB).
pub const SMALL_FLOW_BYTES: u64 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        bytes: u64,
        start: u64,
        end: Option<u64>,
        class: FlowClass,
        q: Option<u64>,
    ) -> FlowRecord {
        FlowRecord {
            id,
            bytes,
            start_ps: start,
            end_ps: end,
            class,
            query: q,
        }
    }

    #[test]
    fn fct_basics() {
        let r = rec(1, 1000, 10, Some(110), FlowClass::Background, None);
        assert_eq!(r.fct_ps(), Some(100));
        let r2 = rec(2, 1000, 10, None, FlowClass::Background, None);
        assert_eq!(r2.fct_ps(), None);
    }

    #[test]
    fn fct_summary_filters_and_converts() {
        let mut fs = FlowSet::new();
        fs.push(rec(
            1,
            50_000,
            0,
            Some(2_000_000_000),
            FlowClass::Background,
            None,
        )); // 2 ms
        fs.push(rec(
            2,
            200_000,
            0,
            Some(4_000_000_000),
            FlowClass::Background,
            None,
        )); // 4 ms
        fs.push(rec(
            3,
            100,
            0,
            Some(1_000_000_000),
            FlowClass::Query,
            Some(1),
        ));
        let all_bg = fs.fct_ms(|r| r.class == FlowClass::Background);
        assert_eq!(all_bg.len(), 2);
        assert_eq!(all_bg.mean(), Some(3.0));
        let small = fs.fct_ms(|r| r.class == FlowClass::Background && r.bytes < SMALL_FLOW_BYTES);
        assert_eq!(small.len(), 1);
        assert_eq!(small.mean(), Some(2.0));
    }

    #[test]
    fn slowdown_uses_ideal() {
        let mut fs = FlowSet::new();
        fs.push(rec(1, 1_000, 0, Some(300), FlowClass::Background, None));
        let s = fs.slowdown(|_| true, |_bytes| 100);
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn qct_takes_last_flow() {
        let mut fs = FlowSet::new();
        fs.push(rec(1, 100, 50, Some(150), FlowClass::Query, Some(7)));
        fs.push(rec(2, 100, 50, Some(450), FlowClass::Query, Some(7)));
        fs.push(rec(3, 100, 60, Some(160), FlowClass::Query, Some(8)));
        let qcts = fs.qcts();
        assert_eq!(qcts.len(), 2);
        assert_eq!(qcts[0].query, 7);
        assert_eq!(qcts[0].bytes, 200);
        assert_eq!(qcts[0].qct_ps(), Some(400));
        assert_eq!(qcts[1].qct_ps(), Some(100));
    }

    #[test]
    fn unfinished_flow_poisons_query() {
        let mut fs = FlowSet::new();
        fs.push(rec(1, 100, 0, Some(100), FlowClass::Query, Some(1)));
        fs.push(rec(2, 100, 0, None, FlowClass::Query, Some(1)));
        let qcts = fs.qcts();
        assert_eq!(qcts[0].qct_ps(), None);
        assert_eq!(fs.unfinished(), 1);
        assert!(fs.qct_ms().is_empty());
    }

    #[test]
    fn qct_slowdown_aggregates_bytes() {
        let mut fs = FlowSet::new();
        fs.push(rec(1, 500, 0, Some(1_000), FlowClass::Query, Some(1)));
        fs.push(rec(2, 500, 0, Some(2_000), FlowClass::Query, Some(1)));
        // ideal(1000 bytes) = 1000 ps ⇒ slowdown 2.
        let s = fs.qct_slowdown(|bytes| bytes);
        assert_eq!(s.mean(), Some(2.0));
    }
}
