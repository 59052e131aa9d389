//! Pinning the benchmark thread to one CPU at a time.
//!
//! On a shared host each vCPU is slowed, on and off, by whatever else runs
//! on its physical core. The timed passes rotate over the CPUs this process
//! may use, so the best-of-k time of every call can come from whichever
//! CPU was quiet. The thread still runs one trial at a time.
//!
//! Uses glibc's `sched_getaffinity`/`sched_setaffinity` directly; the mask
//! is a `cpu_set_t` (1024 bits). Where either call fails, pinning is a no-op.

type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

/// The calling thread's allowed CPUs, captured at start.
pub struct Rotation {
    allowed: Mask,
    cpus: Vec<usize>,
}

impl Rotation {
    pub fn new() -> Rotation {
        let mut allowed: Mask = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut allowed) } == 0;
        let cpus = if ok {
            (0..64 * allowed.len())
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Rotation { allowed, cpus }
    }

    /// Pins the thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[k % self.cpus.len()];
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }

    /// Lets the thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.cpus.is_empty() {
            set(&self.allowed);
        }
    }
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed. A
    // failed call leaves the affinity as it was, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) };
}
