//! Host timings in reference seconds: CPU time, calibrated for host speed.
//!
//! The end-to-end timings are neither wall-clock time nor raw CPU time. On
//! a shared host the wall-clock time of a pass also counts the time other
//! tenants hold the CPUs; CPU time leaves that out (Linux charges a thread
//! only while it runs and, with paravirtual steal accounting, not for time
//! the hypervisor gives to other guests), but the speed of the CPU itself
//! still drifts with the load on the machine, by tens of percent from one
//! minute to the next. So every measured stretch sits between two runs of
//! a fixed calibration kernel, which depends on no code of the program,
//! and its CPU time is scaled by `REF_CALIBRATION_S` over the mean of the
//! two: the CPU seconds it would take on a host where the kernel takes
//! `REF_CALIBRATION_S`. Raw CPU and wall-clock times are printed beside.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, including
/// threads that have ended.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds one calibration takes on the reference host (an Intel Xeon
/// VM with 2 vCPUs, the median of its calibrations).
pub const REF_CALIBRATION_S: f64 = 0.011;

/// Steps of the calibration kernel.
const CALIBRATION_STEPS: u32 = 200_000;

/// A random cyclic permutation of 2^18 slots (1 MiB, as large as a core's
/// private caches), built once.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut order: Vec<u32> = (0..1u32 << 18).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..order.len()).rev() {
            x = xorshift(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; order.len()];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % order.len()];
        }
        next
    })
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Timers in the calibration kernel's heap.
const HEAP: usize = 4096;

/// Slots of the calibration kernel's per-key state.
const STATE: usize = 4096;

/// The calibration kernel: what a discrete-event simulator's host time
/// goes to, in miniature. A binary heap of timers, hashed per-key state
/// and dependent loads across a table that fills a core's private caches.
/// Heap and state live on the stack: the kernel allocates nothing, so it
/// leaves the allocator's arenas and the peak resident memory as they
/// were.
fn kernel(steps: u32) -> u64 {
    let chase = chase_table();
    let mut heap = [0u64; HEAP];
    let mut state = [0u64; STATE];
    let (mut len, mut x, mut at, mut acc) = (0usize, 0x2545_F491_4F6C_DD1Du64, 0u32, 0u64);
    for _ in 0..steps {
        x = xorshift(x);
        let mut j = len;
        heap[j] = x >> 24;
        len += 1;
        while j > 0 && heap[(j - 1) / 2] > heap[j] {
            heap.swap(j, (j - 1) / 2);
            j = (j - 1) / 2;
        }
        if len == HEAP {
            let due = heap[0];
            len -= 1;
            heap[0] = heap[len];
            let mut j = 0;
            loop {
                let (l, r) = (2 * j + 1, 2 * j + 2);
                let c = if r < len && heap[r] < heap[l] { r } else { l };
                if c >= len || heap[j] <= heap[c] {
                    break;
                }
                heap.swap(j, c);
                j = c;
            }
            let slot = (due.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
            state[slot % STATE] = state[slot % STATE].wrapping_add(due);
        }
        at = chase[at as usize];
        acc = acc.wrapping_add(u64::from(at));
    }
    acc.wrapping_add(state.iter().fold(0, |a, &v| a ^ v))
}

/// Run the calibration kernel once on each of `threads` threads at once
/// (on the calling thread when `threads` is 1); the mean CPU seconds of a
/// run. A short untimed run first brings the table back into the caches
/// the measured work has filled.
pub fn calibrate(threads: usize) -> f64 {
    chase_table();
    let one = || {
        black_box(kernel(black_box(CALIBRATION_STEPS / 4)));
        let t = thread_s();
        black_box(kernel(black_box(CALIBRATION_STEPS)));
        thread_s() - t
    };
    if threads <= 1 {
        return one();
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    total / threads as f64
}

/// One measured stretch.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
    /// CPU seconds in reference seconds.
    pub ref_s: f64,
}

/// Measures stretches of work, each between two calibrations; the one
/// after a stretch is the one before the next.
pub struct RefClock {
    threads: usize,
    last: f64,
}

impl RefClock {
    /// A clock calibrating on `threads` threads, the number the measured
    /// work keeps busy.
    pub fn new(threads: usize) -> RefClock {
        RefClock {
            threads,
            last: calibrate(threads),
        }
    }

    /// Run `f` and time it.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let (wall, cpu) = (Instant::now(), process_s());
        let r = f();
        let cpu_s = process_s() - cpu;
        let wall_s = wall.elapsed().as_secs_f64();
        let before = self.last;
        self.last = calibrate(self.threads);
        let ref_s = cpu_s * REF_CALIBRATION_S / (0.5 * (before + self.last)).max(1e-9);
        (
            r,
            Timing {
                wall_s,
                cpu_s,
                ref_s,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        black_box(kernel(black_box(20_000)));
        assert!(thread_s() > t0);
        assert!(process_s() > p0);
    }

    #[test]
    fn reference_time_scales_cpu_time() {
        let mut clock = RefClock::new(2);
        let ((), t) = clock.measure(|| {
            black_box(kernel(black_box(50_000)));
        });
        assert!(t.cpu_s > 0.0 && t.wall_s > 0.0);
        assert!(t.ref_s > 0.0 && t.ref_s.is_finite());
    }
}
