//! Preloaded into the benchmark and the server it starts
//! (`LD_PRELOAD=libcibench_nofsync.so`), this library answers `fsync`
//! and `fdatasync` with success without flushing anything.
//!
//! That is the flush cost of a RAM-backed filesystem such as tmpfs, where
//! both calls return at once. The benchmark keeps its data directories
//! inside its own checkout, which usually sits on a shared virtual disk
//! whose flush latency swings with other tenants' load; with the flushes
//! elided, commit latency measures the server, while the server's own
//! counters still show every sync it issues. Writes still reach the
//! page cache, so a killed server recovers exactly what it wrote.

use std::os::raw::c_int;

/// `fsync(2)` without the flush.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    0
}

/// `fdatasync(2)` without the flush.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    0
}
