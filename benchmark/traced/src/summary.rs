//! Self times per layer, and the check that the spans account for
//! every round.

use crate::spans::Span;
use std::collections::BTreeMap;

/// Each span's self time: its duration minus its same-thread children's
/// (children on one thread never overlap). A fan-out span's workers run
/// on other threads, so its self time is the wall time the driving
/// thread waited for them.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                child[p] += s.duration_ns();
            }
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self nanoseconds by span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count by name.
    pub calls: BTreeMap<&'static str, u64>,
}

impl LayerTotals {
    /// Totals over the spans `keep` selects.
    pub fn over(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Self {
        let mut t = LayerTotals::default();
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            if keep(s) {
                *t.self_ns.entry(s.name).or_default() += self_ns;
                *t.calls.entry(s.name).or_default() += 1;
            }
        }
        t
    }

    /// Self milliseconds of `name`, in total.
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// How many `name` spans there were.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Fan-out thread capacity and participant busy time, in nanoseconds:
/// each `core.fanout` span's wall time times the threads it ran on, and
/// the time its participant spans ran. Capacity not busy is time spent
/// waiting for the slowest chunk.
pub fn fanout_time_ns(spans: &[Span]) -> (u64, u64) {
    let mut per_fan: BTreeMap<usize, (u64, Vec<u32>)> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == "core.fanout") {
            let (busy, threads) = per_fan.entry(p).or_default();
            *busy += s.duration_ns();
            if !threads.contains(&s.thread) {
                threads.push(s.thread);
            }
        }
    }
    let mut capacity = 0u64;
    let mut busy = 0u64;
    for (i, fan) in spans.iter().enumerate() {
        if fan.name == "core.fanout" {
            let (b, threads) = per_fan.remove(&i).unwrap_or_default();
            capacity += fan.duration_ns() * threads.len().max(1) as u64;
            busy += b;
        }
    }
    (capacity, busy)
}

/// Checks that the spans account for every round: each span lies inside
/// its parent, every driving-thread span of a round descends from that
/// round's `round` span, and the self times of those spans sum to the
/// round's wall time.
///
/// # Errors
///
/// Describes the first round that is not accounted for.
pub fn check_accounting(spans: &[Span]) -> Result<(), String> {
    let self_ns = self_times_ns(spans);
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns
                || (s.thread == parent.thread && s.end_ns > parent.end_ns)
            {
                return Err(format!(
                    "span {i} ({}) escapes its parent {}",
                    s.name, parent.name
                ));
            }
        }
    }
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.thread != 0 || s.round == 0 {
            continue;
        }
        let r = root(i);
        if spans[r].name != "round" || spans[r].round != s.round {
            return Err(format!(
                "span {i} ({}) of round {} is not inside that round's span",
                s.name, s.round
            ));
        }
        *sums.entry(r).or_default() += self_ns[i];
    }
    for (r, sum) in sums {
        let wall = spans[r].duration_ns();
        if sum != wall {
            return Err(format!(
                "round {}: self times sum to {sum} ns, wall time is {wall} ns",
                spans[r].round
            ));
        }
    }
    Ok(())
}
