//! Paired overhead guards: is an always-on piece (the journal, the
//! telemetry sampler, wire-trace stamping) as cheap as claimed?
//!
//! A guard runs the same workload with the piece on and off. One run a
//! side, always in the same order, measures the machine as much as the
//! piece, so [`Paired::run`] pays a warm-up, then runs [`GUARD_PAIRS`]
//! on/off pairs that flip which side goes first, and the verdict is the
//! median of the per-pair deltas: one noisy pair cannot move it, a steady
//! cost does.

use dlfm::{AccessControl, DlfmConfig};

use crate::JsonArm;

/// Pairs each guard runs (odd, so the median is one pair's).
pub const GUARD_PAIRS: usize = 5;

/// Median per-pair propagation cost, in percent, above which
/// [`Paired::gate`] fails the run. The expectation is noise (< 5%).
pub const TRACE_GUARD_TOLERANCE_PCT: f64 = 25.0;

/// Linked inserts per wire-trace guard run. No length from 200 to 6 400
/// keeps ten single pairs within the tolerance reliably on a shared box:
/// a run that stalls shows up at every length (EXPERIMENTS.md, "Wire-trace
/// guard run length"). 3 200 narrows the bulk of the spread most (quiet
/// IQR −4.8…+11.4 %, against −16.5…+10.2 % at 200), and its five-pair
/// median tripped the gate in none of 16 groups, where 200 tripped 2 of 6
/// beside a concurrent build.
const TRACE_GUARD_OPS: usize = 3_200;

/// One guard's alternating pairs: rates `(on, off)`, a pair an entry.
pub struct Paired {
    /// The pairs, in the order they ran.
    pub pairs: Vec<(f64, f64)>,
}

impl Paired {
    /// Run `rate(on)` once as a warm-up (allocator, plan cache, listener),
    /// then [`GUARD_PAIRS`] pairs, the on side first in even pairs and the
    /// off side first in odd ones.
    pub fn run(mut rate: impl FnMut(bool) -> f64) -> Paired {
        let _ = rate(true);
        let pairs = (0..GUARD_PAIRS)
            .map(|p| {
                if p % 2 == 0 {
                    let on = rate(true);
                    (on, rate(false))
                } else {
                    let off = rate(false);
                    (rate(true), off)
                }
            })
            .collect();
        Paired { pairs }
    }

    /// Median per-pair cost of the on side, in percent of the off rate.
    pub fn delta_pct(&self) -> f64 {
        let mut pcts: Vec<f64> = self.pairs.iter().map(|&p| pair_delta_pct(p)).collect();
        pcts.sort_by(f64::total_cmp);
        pcts[pcts.len() / 2]
    }

    /// Mean rate of each side, `(on, off)`.
    pub fn means(&self) -> (f64, f64) {
        let n = self.pairs.len() as f64;
        self.pairs.iter().fold((0.0, 0.0), |(a, b), (on, off)| (a + on / n, b + off / n))
    }

    /// Print every pair, the mean of each side and the median per-pair
    /// delta, e.g. `name` "journal guard", `unit` "commits/s", sides
    /// "armed"/"disarmed", and `why` the cost the piece should have.
    pub fn print(&self, bin: &str, name: &str, unit: &str, sides: (&str, &str), why: &str) {
        let (on_label, off_label) = sides;
        for (i, &(on, off)) in self.pairs.iter().enumerate() {
            let pct = pair_delta_pct((on, off));
            println!(
                "{bin}: {name} pair {i}: {off:.0} {unit} {off_label} vs {on:.0} {on_label} \
                 ({pct:+.1}%)"
            );
        }
        let (on, off) = self.means();
        println!(
            "{name}: {off:.0} {unit} {off_label} vs {on:.0} {unit} {on_label} (mean of each \
             side; median per-pair delta {:+.1}%); {why}, expected within noise (< 5%)\n",
            self.delta_pct()
        );
    }

    /// The guard's two JSON arms, `[on, off]`: each side's mean rate, with
    /// the median per-pair delta under `key`.
    pub fn arms(&self, on_label: &str, off_label: &str, key: &str) -> [JsonArm; 2] {
        let (on, off) = self.means();
        let arm = |label: &str, rate: f64| JsonArm {
            label: label.to_string(),
            ops_per_sec: rate,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            extra: vec![(key.to_string(), self.delta_pct())],
        };
        [arm(on_label, on), arm(off_label, off)]
    }

    /// Exit nonzero when the median per-pair delta exceeds the wire-trace
    /// tolerance (25%, against an expected noise below 5%).
    pub fn gate(&self, bin: &str) {
        let delta = self.delta_pct();
        if delta > TRACE_GUARD_TOLERANCE_PCT {
            eprintln!(
                "{bin}: wire-trace propagation overhead {delta:+.1}% (median of {} pairs) \
                 exceeds gate tolerance {TRACE_GUARD_TOLERANCE_PCT:.0}% (expected noise)",
                self.pairs.len()
            );
            std::process::exit(1);
        }
    }
}

/// One pair's cost of the on side, in percent of the off rate.
fn pair_delta_pct((on, off): (f64, f64)) -> f64 {
    (off - on) / off.max(1e-9) * 100.0
}

/// Wire-trace propagation guard, shared by E5 and E12: the same
/// linked-insert workload through the host engine over a loopback TCP
/// deployment ([`datalinks::Deployment::new_wire`]) with frame-header
/// trace stamping on and off. Stamping is two u64 header fields and one
/// atomic load per frame against a socket round trip, so the delta should
/// be measurement noise (< 5%). Rates are links/s.
pub fn wire_trace() -> Paired {
    Paired::run(|tracing| {
        let was = dlrpc::set_wire_tracing(tracing);
        let dep = datalinks::Deployment::new_wire(
            "fs1",
            DlfmConfig::for_tests(),
            hostdb::HostConfig::for_tests(),
            dlfm::Transport::Tcp("127.0.0.1:0".into()),
        );
        let mut session = dep.host.session();
        session
            .create_table(
                "CREATE TABLE g (id BIGINT NOT NULL, doc DATALINK)",
                &[hostdb::DatalinkSpec {
                    column: "doc".into(),
                    access: AccessControl::Partial,
                    recovery: false,
                }],
            )
            .expect("create table over the wire");
        for i in 0..TRACE_GUARD_OPS {
            dep.fs.create(&format!("/g/f{i}"), "bench", b"x").expect("seed file");
        }
        let started = std::time::Instant::now();
        for i in 0..TRACE_GUARD_OPS {
            session
                .exec_params(
                    "INSERT INTO g (id, doc) VALUES (?, ?)",
                    &[
                        minidb::Value::Int(i as i64),
                        minidb::Value::str(format!("dlfs://fs1/g/f{i}")),
                    ],
                )
                .expect("link over the wire");
        }
        let rate = TRACE_GUARD_OPS as f64 / started.elapsed().as_secs_f64().max(1e-9);
        dlrpc::set_wire_tracing(was);
        rate
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_flip_their_first_side_and_the_median_is_per_pair() {
        // Rates handed out in call order: a warm-up, then five pairs.
        let rates = [1.0, 99.0, 100.0, 60.0, 50.0, 200.0, 300.0, 100.0, 100.0, 10.0, 20.0];
        let mut calls = Vec::new();
        let g = Paired::run(|on| {
            calls.push(on);
            rates[calls.len() - 1]
        });
        assert_eq!(
            calls,
            [true, true, false, false, true, true, false, false, true, true, false],
            "a warm-up, then the first side alternates from pair to pair"
        );
        assert_eq!(
            g.pairs,
            [(99.0, 100.0), (50.0, 60.0), (200.0, 300.0), (100.0, 100.0), (10.0, 20.0)]
        );
        // Per-pair deltas 1, 16.7, 33.3, 0 and 50 %: their median is 16.7 %,
        // where the sides' own medians (99 vs 100) would say 1 %.
        assert!((g.delta_pct() - 100.0 / 6.0).abs() < 1e-9, "{}", g.delta_pct());
        let (on, off) = g.means();
        assert!((on - 91.8).abs() < 1e-9 && (off - 116.0).abs() < 1e-9, "{on} {off}");
        let [on_arm, off_arm] = g.arms("x_on", "x_off", "x_delta_pct");
        assert_eq!((on_arm.label.as_str(), off_arm.label.as_str()), ("x_on", "x_off"));
        assert_eq!(on_arm.extra, [("x_delta_pct".to_string(), g.delta_pct())]);
    }
}
