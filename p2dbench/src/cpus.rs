//! Thread placement, and idle-priority spinners that keep every CPU
//! awake during the load.
//!
//! In a deployment each pole counts on its own hardware, and counting
//! never competes with the campus aggregator or the serving tier for a
//! CPU. In one process the scheduler decides by chance whether the HTTP
//! pump waits behind a counting step, and that chance moved the read
//! tail of `campus_paced` twentyfold between runs. So the pole
//! generators run on the upper half of the process's CPUs at nice 10,
//! and the campus side and the readers on the lower half.
//!
//! The campus side then leaves its CPUs idle between short bursts. On a
//! virtual machine an idle vCPU halts, and waking it again costs a
//! host-side context switch whose latency swings from microseconds to
//! milliseconds with the load of other guests; on a 2-vCPU host that
//! swing, not the program, set the read tail of a run. A `SCHED_IDLE`
//! spinner on each CPU keeps the vCPUs from halting: any other thread
//! that wakes preempts it at once, so it takes only time nothing else
//! wants, and its CPU time is subtracted from `cpu_util`.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};

/// The CPUs the process started with, ascending.
fn allowed() -> &'static [usize] {
    static AT_START: OnceLock<Vec<usize>> = OnceLock::new();
    AT_START.get_or_init(imp::allowed)
}

/// Call once at process start, before any thread is placed.
pub fn init() {
    allowed();
}

/// Which side of a run a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Pole generators: the upper half of the process's CPUs.
    Poles,
    /// The campus side and the readers: the lower half.
    Campus,
}

/// `side`'s half of the process's CPUs; empty with fewer than two.
fn cpus_of(side: Side) -> &'static [usize] {
    let cpus = allowed();
    if cpus.len() < 2 {
        return &[];
    }
    let (low, high) = cpus.split_at(cpus.len() / 2);
    match side {
        Side::Poles => high,
        Side::Campus => low,
    }
}

/// CPUs the pole side runs on.
pub fn pole_count() -> usize {
    match cpus_of(Side::Poles).len() {
        0 => crate::stats::nproc(),
        n => n,
    }
}

/// Restricts the calling thread, and threads it starts afterwards, to
/// `side`'s half; a pole-side thread also drops to nice 10. Best effort:
/// placement changes which CPU runs a thread, never what is computed.
pub fn place(side: Side) {
    if !cpus_of(side).is_empty() {
        imp::pin(cpus_of(side));
    }
    if side == Side::Poles {
        imp::nice(10);
    }
}

/// Lets the calling thread run on every CPU again.
pub fn unplace() {
    imp::pin(allowed());
}

/// One idle-priority spinner per CPU the process may use, until
/// dropped.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    tids: Vec<Arc<AtomicI32>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let mut tids = Vec::new();
        let mut handles = Vec::new();
        for &cpu in allowed() {
            let stop = Arc::clone(&stop);
            let tid = Arc::new(AtomicI32::new(0));
            tids.push(Arc::clone(&tid));
            handles.push(std::thread::spawn(move || {
                // A spinner that could not drop to SCHED_IDLE on its own
                // CPU would compete with the system as an equal: it does
                // not spin.
                if !imp::pin(&[cpu]) || !imp::idle_policy() {
                    return;
                }
                tid.store(imp::gettid(), Ordering::Release);
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
        }
        Spinners {
            stop,
            tids,
            handles,
        }
    }

    /// CPU-seconds the spinners have used so far.
    pub fn cpu_seconds(&self) -> f64 {
        self.tids
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .filter(|&t| t > 0)
            .map(|t| crate::stats::cpu_seconds_of(&format!("/proc/self/task/{t}/stat")))
            .sum()
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    /// `SCHED_IDLE`: runs only when no other thread on the CPU wants to.
    const SCHED_IDLE: i32 = 5;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        #[link_name = "gettid"]
        fn sys_gettid() -> i32;
    }

    /// The calling thread's allowed CPUs, ascending (none if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer for the
        // whole call and the size passed is its size; pid 0 is the
        // calling thread. The kernel writes at most `cpusetsize` bytes.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; whether it worked.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live 128-byte buffer for the whole call,
        // the size passed is its size, and the kernel only reads it;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
    }

    /// Moves the calling thread to `SCHED_IDLE`; whether it worked.
    pub fn idle_policy() -> bool {
        let priority: i32 = 0;
        // SAFETY: `param` points at a live `struct sched_param` (one
        // int, priority 0 as SCHED_IDLE requires) for the whole call;
        // pid 0 is the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }

    /// Sets the calling thread's nice value (Linux keeps it per thread).
    pub fn nice(value: i32) {
        // SAFETY: plain integer arguments; PRIO_PROCESS (0) with who 0
        // names the calling thread.
        let _ = unsafe { setpriority(0, 0, value) };
    }

    pub fn gettid() -> i32 {
        // SAFETY: gettid(2) takes no arguments and cannot fail.
        unsafe { sys_gettid() }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }

    pub fn idle_policy() -> bool {
        false
    }

    pub fn nice(_value: i32) {}

    pub fn gettid() -> i32 {
        0
    }
}
