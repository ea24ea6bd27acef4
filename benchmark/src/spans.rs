//! Harness-side spans: one per call into a layer's public functions,
//! kept in memory, nested by an explicit enter/exit stack.

use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// The spans of one repetition.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    pub recs: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        let now = self.t0.elapsed();
        self.recs.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(self.recs.len() - 1);
    }

    pub fn exit(&mut self) {
        let i = self.stack.pop().expect("exit without enter");
        self.recs[i].end = self.t0.elapsed();
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Summed duration of every span called `name`, in seconds (0 when
    /// there is none).
    pub fn total(&self, name: &str) -> f64 {
        let spans = self.recs.iter().filter(|s| s.name == name);
        spans
            .map(|s| s.end - s.start)
            .sum::<Duration>()
            .as_secs_f64()
    }

    /// Per name: calls, summed duration and summed self time (duration
    /// minus the part covered by child spans), in first-seen order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![Duration::ZERO; self.recs.len()];
        for s in &self.recs {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.recs.iter().enumerate() {
            let dur = (s.end - s.start).as_secs_f64();
            let own = dur - child[i].as_secs_f64();
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => out.push((s.name, 1, dur, own)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new();
        sp.enter("outer");
        sp.scope("inner", || std::thread::sleep(Duration::from_millis(2)));
        sp.scope("inner", || ());
        sp.exit();
        let rows = sp.by_name();
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[1], ("inner", 2, rows[1].2, rows[1].3));
        assert!(sp.total("inner") >= 0.002);
        // outer's self time is what its two children do not cover.
        assert!((rows[0].3 - (rows[0].2 - rows[1].2)).abs() < 1e-9);
        assert_eq!(sp.recs[1].parent, Some(0));
    }
}
