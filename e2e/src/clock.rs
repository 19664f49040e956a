//! Process CPU time at nanosecond resolution.
//!
//! `/proc/self/stat` counts 10 ms ticks, which quantises the CPU of a
//! 6-second window of the 18 txn/s workload to about ±20 % per
//! transaction. `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` has no such
//! step. Declared by hand, the way `bargain_net`'s reactor declares epoll:
//! the build has no `libc` crate.

use std::ffi::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time consumed so far by every thread of this process, user plus
/// system.
///
/// # Panics
/// If the kernel refuses the clock, which Linux never does for this id.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // every Linux target this repo builds for), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
