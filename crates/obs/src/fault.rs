//! Deterministic, seeded fault injection.
//!
//! Components thread **named fault points** through their error paths by
//! calling [`fire`] with a stable point name (e.g. `"minidb.wal.append"`,
//! `"rpc.call.drop"`, `"dlfm.phase2.deadlock"`). When no plan is installed
//! the check is a single relaxed atomic load — safe to leave in hot paths.
//!
//! Tests install a [`Trigger`] schedule per point with [`install`] (or the
//! RAII [`install_guarded`]). Probabilistic triggers draw from a per-point
//! xorshift generator seeded from `seed ^ hash(point name)`, so every
//! failure sequence is replayable from its seed alone: same seed, same
//! plan, same sequence of [`fire`] calls → identical faults.
//!
//! The registry is process-global (faults cross crate boundaries exactly
//! like real infrastructure failures do), so tests that install plans must
//! serialize with each other and clean up with [`clear`] / the guard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// When an armed fault point actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on exactly the `n`-th hit (1-based), never again.
    Nth(u64),
    /// Fire on the first `n` hits, then go quiet.
    Times(u64),
    /// Fire on every `n`-th hit (the `n`-th, `2n`-th, ...).
    EveryNth(u64),
    /// Fire each hit independently with this probability, drawn from the
    /// point's seeded generator.
    Probability(f64),
}

struct PointState {
    trigger: Trigger,
    rng: u64,
    hits: u64,
    fires: u64,
}

/// Process-wide fast-path switch: exactly one relaxed load on the disabled
/// path, so fault points cost nothing in production builds.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<HashMap<String, PointState>>> = Mutex::new(None);

/// Stable 64-bit FNV-1a: deterministic across processes and builds, unlike
/// `std::collections::hash_map::DefaultHasher`. The workspace's one copy —
/// fault-plan seeding here, the host's shard ring and minidb's statement
/// cache elsewhere.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64 finalizer: spreads every input bit across the word so that
/// adjacent seeds (and `|1` zero-avoidance below) still give distinct
/// streams.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64* step; the high bits become a uniform f64 in [0, 1).
fn next_unit(rng: &mut u64) -> f64 {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    let draw = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
    draw as f64 / (1u64 << 53) as f64
}

/// Install a fault plan: each `(point, trigger)` arms one named fault
/// point. Replaces any previous plan. `seed` makes probabilistic triggers
/// replayable — the same seed and call sequence produce the same faults.
pub fn install(seed: u64, specs: &[(&str, Trigger)]) {
    let mut points = HashMap::new();
    for (name, trigger) in specs {
        points.insert(
            name.to_string(),
            PointState {
                trigger: *trigger,
                // Never-zero per-point stream, decorrelated by point name.
                rng: mix(seed ^ fnv1a(name)) | 1,
                hits: 0,
                fires: 0,
            },
        );
    }
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(points);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Disarm everything and drop the plan. Idempotent.
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// RAII plan handle: [`clear`]s on drop, so a panicking test cannot leak
/// its faults into the next one.
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// [`install`] returning a guard that clears the plan when dropped.
#[must_use = "the plan is cleared when the guard drops"]
pub fn install_guarded(seed: u64, specs: &[(&str, Trigger)]) -> FaultGuard {
    install(seed, specs);
    FaultGuard(())
}

/// Should this named fault point fail now? One relaxed atomic load when no
/// plan is installed; unarmed points never fire.
#[inline]
pub fn fire(point: &str) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: &str) -> bool {
    let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let Some(points) = guard.as_mut() else { return false };
    let Some(st) = points.get_mut(point) else { return false };
    st.hits += 1;
    let fired = match st.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => st.hits == n,
        Trigger::Times(n) => st.hits <= n,
        Trigger::EveryNth(n) => n > 0 && st.hits.is_multiple_of(n),
        Trigger::Probability(p) => next_unit(&mut st.rng) < p,
    };
    if fired {
        st.fires += 1;
    }
    drop(guard); // release the plan lock before journaling (it may dump)
    if fired {
        crate::journal::on_fault_fired(point);
    }
    fired
}

/// Times an armed point has been evaluated under the current plan.
pub fn hits(point: &str) -> u64 {
    let guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|p| p.get(point)).map_or(0, |s| s.hits)
}

/// Times an armed point has fired under the current plan.
pub fn fires(point: &str) -> u64 {
    let guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|p| p.get(point)).map_or(0, |s| s.fires)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; unit tests serialize on this.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_points_never_fire() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert!(!fire("anything"));
        let _g = install_guarded(1, &[("armed", Trigger::Always)]);
        assert!(!fire("unarmed"), "points outside the plan stay quiet");
        assert!(fire("armed"));
    }

    #[test]
    fn counting_triggers() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _g = install_guarded(
            7,
            &[
                ("nth", Trigger::Nth(2)),
                ("times", Trigger::Times(2)),
                ("every", Trigger::EveryNth(3)),
            ],
        );
        let pattern: Vec<bool> = (0..6).map(|_| fire("nth")).collect();
        assert_eq!(pattern, [false, true, false, false, false, false]);
        let pattern: Vec<bool> = (0..4).map(|_| fire("times")).collect();
        assert_eq!(pattern, [true, true, false, false]);
        let pattern: Vec<bool> = (0..7).map(|_| fire("every")).collect();
        assert_eq!(pattern, [false, false, true, false, false, true, false]);
        assert_eq!(hits("nth"), 6);
        assert_eq!(fires("nth"), 1);
        assert_eq!(fires("times"), 2);
        assert_eq!(fires("every"), 2);
    }

    #[test]
    fn probability_is_replayable_from_the_seed() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let run = |seed: u64| -> Vec<bool> {
            let _g = install_guarded(seed, &[("p", Trigger::Probability(0.4))]);
            (0..64).map(|_| fire("p")).collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same fault sequence");
        let c = run(43);
        assert_ne!(a, c, "different seeds should diverge");
        let rate = a.iter().filter(|f| **f).count();
        assert!((10..=40).contains(&rate), "p=0.4 over 64 draws fired {rate} times");
    }

    #[test]
    fn probability_streams_are_decorrelated_by_point_name() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _g = install_guarded(
            9,
            &[("a", Trigger::Probability(0.5)), ("b", Trigger::Probability(0.5))],
        );
        let a: Vec<bool> = (0..64).map(|_| fire("a")).collect();
        let b: Vec<bool> = (0..64).map(|_| fire("b")).collect();
        assert_ne!(a, b, "two points with one seed must not share a stream");
    }

    #[test]
    fn clear_disarms_and_guard_clears_on_drop() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        install(3, &[("x", Trigger::Always)]);
        assert!(fire("x"));
        clear();
        assert!(!fire("x"));
        {
            let _g = install_guarded(3, &[("x", Trigger::Always)]);
            assert!(fire("x"));
        }
        assert!(!fire("x"), "guard drop must clear the plan");
    }
}
