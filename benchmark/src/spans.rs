//! Benchmark-owned spans around the calls into each layer.
//!
//! The benchmark is single-threaded, so one recorder with a stack of open
//! spans is enough. Spans stay in memory and are written with the results.
//! Disabled (timed runs), `scope` only calls its closure.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The iteration this span belongs to.
    pub iter: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
    iter: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to the next iteration.
    pub fn next_iteration(&mut self) {
        self.iter += 1;
    }

    /// Run `f` inside a span named `name`; `f` gets the recorder back to
    /// open child spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }
}

/// Self time of every span: its duration minus the time its direct children
/// cover. Children of one single-threaded span never overlap, so that is the
/// sum of their durations.
pub fn self_times_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = recs.iter().map(SpanRec::duration_ns).collect();
    for r in recs {
        if let Some(p) = r.parent {
            own[p] = own[p].saturating_sub(r.duration_ns());
        }
    }
    own
}

/// Durations (ns) of every span with this name, in recording order.
pub fn durations_ns(recs: &[SpanRec], name: &str) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.name == name)
        .map(|r| r.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let recs = vec![
            rec("iteration", 0, 100, None),
            rec("read", 5, 35, Some(0)),
            rec("register", 35, 50, Some(0)),
            rec("run", 50, 98, Some(0)),
            rec("inner", 60, 70, Some(3)),
        ];
        assert_eq!(self_times_ns(&recs), vec![7, 30, 15, 38, 10]);
        // The parts account for the whole.
        assert_eq!(self_times_ns(&recs).iter().sum::<u64>(), 100);
    }

    #[test]
    fn scopes_nest_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        s.next_iteration();
        let v = s.scope("outer", |s| s.scope("inner", |_| 7));
        assert_eq!(v, 7);
        let r = s.records();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].name, r[0].parent, r[0].iter), ("outer", None, 1));
        assert_eq!((r[1].name, r[1].parent), ("inner", Some(0)));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);

        let mut off = Spans::new(false);
        assert_eq!(off.scope("x", |_| 1), 1);
        assert!(off.records().is_empty());
    }
}
