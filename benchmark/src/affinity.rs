//! Confine the benchmark to one CPU.
//!
//! On the 2-vCPU sandbox a wake-up that crosses CPUs costs several times a
//! same-CPU one, and whether the scheduler keeps a client and the agent it
//! talks to together changes from one process to the next: the same
//! set-up took 0.87 s or 2.6 s, the same 1-client workload ran at 1 400
//! or 2 000 txn/s. With every thread on one CPU each hand-off is a plain
//! context switch, which repeats. The price is that nothing runs truly in
//! parallel; clients still interleave at every blocking call.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a 1 024-bit `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to the lowest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` when the platform refuses (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; sys::WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes,
    // which is what glibc's sched_getaffinity(2) wrapper fills; pid 0 names
    // the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; sys::WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // wrapper only reads; the single bit set names a CPU the kernel just
    // reported as allowed.
    if unsafe { sys::sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
