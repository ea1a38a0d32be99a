//! # hape-pool — the workspace's one fan-out
//!
//! The only place in the workspace that spawns threads, through one
//! function, [`scatter`]. The engine's parallel data plane
//! (`hape_core::runtime` re-exports it) and the §5 join's per-co-partition
//! joins (`hape_join::coprocess`) dispatch through it; the radix partition
//! pass is sequential. A second spawn site fails CI.
//!
//! The pool is deliberately simple (no external crates are available):
//! [`std::thread::scope`] threads pull job indices off a shared atomic
//! cursor and deliver results over an [`std::sync::mpsc`] channel; the
//! caller reassembles them in index order. Nothing about *which* thread
//! computes a job can influence a result — jobs are pure functions of
//! their index — which is what makes the thread count a pure wall-clock
//! knob. A fresh scope is opened per call: parked workers running borrowed
//! closures would need `unsafe` or `'static` jobs. That per-call spawn is
//! measured at about 70 µs per scope on a 2-vCPU guest (an empty 2-job
//! `scatter`, p10); making phases fan out only when their work covers it
//! is ROADMAP item 10.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `n` independent jobs across up to `threads` pool threads and return
/// the results in job-index order.
///
/// Each pool thread builds one private scratch state via `init` (reusable
/// buffers survive across the jobs a thread executes) and repeatedly claims
/// the next unclaimed job index. `init` receives the pool-thread index
/// (0-based; 0 on the inline path) — observability only: the tracing plane
/// labels wall-clock packet spans with the pool thread that computed them.
/// Results travel back over an mpsc channel and are slotted by index, so
/// the output — and therefore everything the control plane derives from it
/// — is independent of scheduling order and of `threads` itself.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread through the same code path.
pub fn scatter<S, R, I, F>(threads: usize, n: usize, init: I, job: F) -> Vec<R>
where
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n);
    if workers <= 1 {
        let mut scratch = init(0);
        return (0..n).map(|i| job(i, &mut scratch)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let tx = tx.clone();
                let (cursor, init, job) = (&cursor, &init, &job);
                scope.spawn(move || {
                    let mut scratch = init(t);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = job(i, &mut scratch);
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
        join_all(handles);
    });
    out.into_iter().map(|r| r.expect("pool delivered every job")).collect()
}

/// Join every pool thread, re-raising the first worker panic as it was
/// thrown. The handles are joined, never dropped: dropping a
/// `ScopedJoinHandle` is a `pthread_detach`, and glibc's detach reads the
/// thread descriptor after publishing the detach — a use-after-unmap when
/// that thread is exiting at the same moment and its stack does not fit the
/// stack cache (seen once as a segfault at 256 pool threads). A joined
/// thread is never detached, so the window does not exist.
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for h in handles {
        if let Err(panic) = h.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_returns_results_in_index_order_at_any_thread_count() {
        // 256 exceeds the job count: the pool must not spawn (or index)
        // past the work there is.
        for threads in [1, 2, 8, 64, 256] {
            let out = scatter(
                threads,
                100,
                |t| {
                    assert!(t < threads.min(100), "pool-thread index in range");
                    0u64
                },
                |i, scratch| {
                    *scratch += 1; // per-thread scratch is private
                    i * i
                },
            );
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn scatter_handles_empty_and_single_jobs() {
        assert!(scatter(8, 0, |_| (), |i, _| i).is_empty());
        assert_eq!(scatter(8, 1, |_| (), |i, _| i + 42), vec![42]);
    }
}
