//! An in-process call costs its caller one context switch, not three.
//!
//! A hand-off between a client and an agent is a wake-up through the
//! channel stand-in (`vendor/crossbeam`). On one CPU, a signal sent while
//! the signaller still holds the channel lock, or sent to nobody, costs
//! extra switches: the woken thread preempts the signaller, finds the lock
//! held and parks again. This counts the caller thread's voluntary context
//! switches over many calls to a no-op handler, with the caller and every
//! agent pinned to one CPU, so the count repeats from run to run where a
//! latency would not.
//!
//! Linux only: the counter is `voluntary_ctxt_switches` in
//! `/proc/thread-self/status`. The calls are timed nowhere.

#![cfg(target_os = "linux")]

use dlrpc::{fabric, serve, AgentModel, PoolEvent, ReplySlot};

/// Calls per agent model.
const CALLS: u64 = 2_000;
/// The most voluntary switches one call may cost its caller. One switch
/// per call is the floor on one CPU (the caller sleeps until the reply
/// exists) unless the agent runs first; signalling under the lock pushed
/// it to 2 (pooled) and 3 (dedicated).
const MAX_SWITCHES_PER_CALL: f64 = 1.2;

mod sys {
    /// Words of a 1 024-bit `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may use. `None` when the platform refuses.
fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; sys::WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; sys::WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the call
    // only reads; its one bit names a CPU the kernel reported as allowed.
    if unsafe { sys::sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// The calling thread's voluntary context switches so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("thread status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches line")
}

fn noop() -> impl FnMut(PoolEvent<u8>, ReplySlot<u8>) + Send {
    |ev, slot| {
        if let PoolEvent::Request { req, .. } = ev {
            slot.send(req)
        }
    }
}

/// Voluntary switches per call to a no-op handler under `model`.
fn switches_per_call(model: AgentModel) -> f64 {
    let (listener, connector) = fabric::<u8, u8>(model);
    let mut handle = serve(listener, noop);
    let conn = connector.connect().unwrap();
    // Warm up: the dedicated agent is spawned by the first call.
    for i in 0..10 {
        assert_eq!(conn.call(i).unwrap(), i);
    }
    let before = voluntary_switches();
    for i in 0..CALLS {
        assert_eq!(conn.call(i as u8).unwrap(), i as u8);
    }
    let per_call = (voluntary_switches() - before) as f64 / CALLS as f64;
    drop(conn);
    handle.shutdown();
    per_call
}

#[test]
fn an_in_process_call_switches_its_caller_out_about_once() {
    let Some(cpu) = pin_to_one_cpu() else {
        println!("sched_setaffinity refused: switch counts unpinned mean nothing, skipping");
        return;
    };
    let measured: Vec<(&str, f64)> =
        [("pooled(8, 64)", AgentModel::pooled(8, 64)), ("dedicated", AgentModel::Dedicated)]
            .into_iter()
            .map(|(name, model)| (name, switches_per_call(model)))
            .collect();
    for (name, per_call) in &measured {
        println!("{name}: {per_call:.2} voluntary switches per call on cpu {cpu}");
    }
    for (name, per_call) in measured {
        assert!(
            per_call <= MAX_SWITCHES_PER_CALL,
            "{name}: {per_call:.2} voluntary context switches per in-process call \
             (at most {MAX_SWITCHES_PER_CALL}): a hand-off wakes a thread that cannot run yet"
        );
    }
}
