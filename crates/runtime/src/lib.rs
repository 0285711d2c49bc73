//! A dependency-free parallel runtime for the workspace's compute
//! kernels.
//!
//! The paper's central result (§6, Fig. 10–11) is that the three
//! computational bottlenecks — detection, tracking, localization — meet
//! the 100 ms end-to-end latency constraint only when their dense
//! linear-algebra cores are parallelized onto multicore or accelerator
//! hardware. This crate is the workspace's native counterpart to that
//! observation: a small fork-join worker pool built entirely on
//! [`std::thread::scope`], with no external dependencies, that the
//! tensor kernels (`adsim-tensor`), the DNN engines (`adsim-dnn`) and
//! the native pipeline (`adsim-core`) use to spread work across cores.
//!
//! # Design
//!
//! A [`Runtime`] is a lightweight, copyable handle holding a worker
//! count. Each parallel region opens a fresh [`std::thread::scope`],
//! spawns `threads - 1` workers and participates with the calling
//! thread; tasks are handed out dynamically through an atomic cursor so
//! uneven task costs still balance. Scoped threads may borrow from the
//! caller's stack, which is what lets the kernels partition borrowed
//! tensor buffers without `unsafe` or reference counting.
//!
//! Opening a scope costs a few tens of microseconds per region — noise
//! against the multi-millisecond matmul/conv2d calls this crate exists
//! for. Callers guard genuinely tiny workloads with
//! [`Runtime::for_work`], which degrades to serial execution below a
//! work threshold.
//!
//! # Examples
//!
//! ```
//! use adsim_runtime::Runtime;
//!
//! let rt = Runtime::new(4);
//! let mut data = vec![0u64; 1024];
//! rt.par_chunks_mut(&mut data, 128, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 128 + i) as u64;
//!     }
//! });
//! assert_eq!(data[517], 517);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A panic payload carried from a worker thread back to the caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// First-panic capture shared by a parallel region's workers.
///
/// A panic inside a spawned scoped thread would otherwise surface at
/// the caller as `std::thread::scope`'s own opaque join panic, losing
/// the payload. Workers instead catch their panic here; the region
/// rethrows the *original* payload (first panic wins) on the calling
/// thread after the scope closes, so a typed payload — e.g.
/// `adsim_faults::InjectedCrash` raised through a pool worker — stays
/// downcastable at the cell boundary. Once a panic is captured the
/// region stops handing out new tasks; remaining tasks are skipped
/// (the region is about to unwind — partial output must not look
/// complete).
struct PanicSlot {
    poisoned: AtomicBool,
    payload: Mutex<Option<PanicPayload>>,
}

impl PanicSlot {
    fn new() -> Self {
        Self { poisoned: AtomicBool::new(false), payload: Mutex::new(None) }
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn capture(&self, p: PanicPayload) {
        let mut slot = self.payload.lock().expect("panic slot lock");
        if slot.is_none() {
            *slot = Some(p);
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// Rethrows the captured payload on the calling thread, if any.
    fn rethrow(self) {
        if let Some(p) = self.payload.into_inner().expect("panic slot lock") {
            resume_unwind(p);
        }
    }
}

/// Minimum number of scalar operations below which parallel dispatch is
/// not worth a scope spawn (see [`Runtime::for_work`]).
pub(crate) const PAR_WORK_THRESHOLD: usize = 16 * 1024;

/// A copyable fork-join worker-pool handle.
///
/// See the [crate docs](crate) for the execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// Creates a runtime that runs parallel regions on `threads`
    /// workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A single-threaded runtime: every operation runs inline on the
    /// calling thread. This is the drop-in replacement for the old
    /// serial kernels.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A runtime sized to the machine (`std::thread::available_parallelism`,
    /// falling back to 1 when the count cannot be determined).
    pub fn max_parallel() -> Self {
        Self::new(available_parallelism())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This runtime, degraded to serial when `work` (an approximate
    /// scalar-operation count) is too small to amortize a scope spawn.
    pub fn for_work(&self, work: usize) -> Runtime {
        if work < PAR_WORK_THRESHOLD {
            Runtime::serial()
        } else {
            *self
        }
    }

    /// Runs `f(task)` for every `task` in `0..n_tasks`, distributing
    /// tasks dynamically over the workers. Tasks are handed out in
    /// contiguous grains to keep cursor contention low; every index is
    /// executed exactly once. Returns after all tasks complete.
    ///
    /// # Panics
    ///
    /// If a task panics, the region stops handing out tasks and
    /// re-raises the **first** panic's original payload on the calling
    /// thread (never `thread::scope`'s opaque join panic), so typed
    /// payloads stay downcastable at the boundary. Tasks not yet
    /// claimed when the panic hit are skipped.
    pub fn run(&self, n_tasks: usize, f: impl Fn(usize) + Sync) {
        self.run_with_state(n_tasks, || (), |(), task| f(task));
    }

    /// Like [`Runtime::run`], but each worker first builds a private
    /// state with `init` and threads it through every task it executes,
    /// so a kernel can reuse one scratch buffer per worker instead of
    /// allocating per task.
    pub(crate) fn run_with_state<S>(
        &self,
        n_tasks: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) + Sync,
    ) {
        if n_tasks == 0 {
            return;
        }
        let workers = self.threads.min(n_tasks);
        // Grain size: enough grains per worker for dynamic balance,
        // few enough that the atomic cursor stays cold.
        let grain = (n_tasks / (4 * workers)).max(1);
        if workers <= 1 {
            let mut state = init();
            for task in 0..n_tasks {
                f(&mut state, task);
            }
            return;
        }
        // Region/worker spans cost one relaxed atomic load each when
        // tracing is off; enabled they make per-worker busy time and
        // fork-join wall time visible (DESIGN.md §8).
        let _region = adsim_trace::span(adsim_trace::REGION_SPAN);
        let cursor = AtomicUsize::new(0);
        let panics = PanicSlot::new();
        let worker_loop = |worker: usize| {
            let _busy = adsim_trace::span_at(adsim_trace::WORKER_SPAN, worker);
            let mut state = init();
            loop {
                if panics.poisoned() {
                    break;
                }
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= n_tasks {
                    break;
                }
                let grain_run = catch_unwind(AssertUnwindSafe(|| {
                    for task in start..(start + grain).min(n_tasks) {
                        f(&mut state, task);
                    }
                }));
                if let Err(p) = grain_run {
                    panics.capture(p);
                    break;
                }
            }
        };
        std::thread::scope(|s| {
            let wl = &worker_loop;
            for worker in 1..workers {
                // Flush after the busy span drops: the scope unblocks
                // when the closure returns, which may precede the
                // thread's TLS destructors — an unflushed buffer could
                // otherwise miss the session that is about to finish.
                s.spawn(move || {
                    wl(worker);
                    adsim_trace::flush_thread();
                });
            }
            worker_loop(0);
        });
        panics.rethrow();
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements
    /// (the final chunk may be shorter) and runs
    /// `f(chunk_index, chunk)` over them in parallel. Chunks are
    /// disjoint `&mut` views, so workers can write without
    /// synchronization.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero and `data` is non-empty.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        // Disjoint &mut chunks are handed out through a mutex-guarded
        // iterator; the lock is held only to pop the next chunk, and
        // chunk counts are small relative to per-chunk work.
        let _region = adsim_trace::span(adsim_trace::REGION_SPAN);
        let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        let panics = PanicSlot::new();
        let worker_loop = |worker: usize| {
            let _busy = adsim_trace::span_at(adsim_trace::WORKER_SPAN, worker);
            loop {
                if panics.poisoned() {
                    break;
                }
                let next = queue.lock().expect("chunk queue lock").next();
                match next {
                    Some((i, chunk)) => {
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(i, chunk))) {
                            panics.capture(p);
                            break;
                        }
                    }
                    None => break,
                }
            }
        };
        std::thread::scope(|s| {
            let wl = &worker_loop;
            for worker in 1..workers {
                s.spawn(move || {
                    wl(worker);
                    adsim_trace::flush_thread();
                });
            }
            worker_loop(0);
        });
        panics.rethrow();
    }

    /// Runs two closures concurrently and returns both results — the
    /// Fig. 1 fork: detection and localization start in parallel on
    /// the same frame (steps 1a/1b).
    ///
    /// On a serial runtime `fa` then `fb` run inline in order.
    pub fn join<A: Send, B: Send>(
        &self,
        fa: impl FnOnce() -> A + Send,
        fb: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        if self.threads <= 1 {
            let a = fa();
            let b = fb();
            return (a, b);
        }
        let _region = adsim_trace::span(adsim_trace::REGION_SPAN);
        std::thread::scope(|s| {
            let ha = s.spawn(move || {
                let a = {
                    let _busy = adsim_trace::span_at(adsim_trace::WORKER_SPAN, 1);
                    fa()
                };
                adsim_trace::flush_thread();
                a
            });
            let b = {
                let _busy = adsim_trace::span_at(adsim_trace::WORKER_SPAN, 0);
                fb()
            };
            // Re-raise the spawned task's original payload on the
            // caller instead of a generic join panic, so typed
            // payloads survive the pool boundary.
            let a = match ha.join() {
                Ok(a) => a,
                Err(p) => resume_unwind(p),
            };
            (a, b)
        })
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::max_parallel()
    }
}

/// The machine's available hardware parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            for n in [0usize, 1, 7, 64, 1000] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                rt.run(n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn par_chunks_mut_partitions_disjointly() {
        for threads in [1, 2, 5] {
            let rt = Runtime::new(threads);
            for (len, chunk) in [(0usize, 3usize), (1, 3), (10, 3), (12, 3), (100, 7)] {
                let mut data = vec![0u32; len];
                rt.par_chunks_mut(&mut data, chunk, |ci, c| {
                    for (i, v) in c.iter_mut().enumerate() {
                        *v += (ci * chunk + i) as u32 + 1;
                    }
                });
                for (i, v) in data.iter().enumerate() {
                    assert_eq!(*v, i as u32 + 1, "threads={threads} len={len}");
                }
            }
        }
    }

    #[test]
    fn run_with_state_reuses_worker_state() {
        let rt = Runtime::new(4);
        let inits = AtomicUsize::new(0);
        let sum = AtomicU64::new(0);
        rt.run_with_state(
            1000,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, task| {
                *acc += task as u64;
                sum.fetch_add(task as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
        assert!(inits.load(Ordering::Relaxed) <= 4, "one state per worker");
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let (a, b) = rt.join(|| 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn join_runs_closures_concurrently_when_parallel() {
        use std::sync::mpsc;
        let rt = Runtime::new(2);
        let (tx, rx) = mpsc::channel();
        let (tx2, rx2) = (tx.clone(), rx);
        // Each closure unblocks the other; completes only if truly
        // concurrent.
        let (a, b) = rt.join(
            move || {
                tx.send(1).unwrap();
                1
            },
            move || {
                tx2.send(2).unwrap();
                rx2.recv().unwrap() + rx2.recv().unwrap()
            },
        );
        assert_eq!(a, 1);
        assert_eq!(b, 3);
    }

    /// A typed payload standing in for `adsim_faults::InjectedCrash`
    /// (this crate cannot depend on the faults crate).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct TypedCrash {
        frame: u64,
    }

    /// The worker-panic contract: a panic inside a pool task reaches
    /// the caller as the *original* payload — typed payloads survive
    /// downcast at the cell boundary instead of arriving as
    /// `thread::scope`'s opaque join panic.
    #[test]
    fn run_surfaces_worker_panic_payload_typed() {
        for threads in [1usize, 4] {
            let rt = Runtime::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rt.run(64, |i| {
                    if i == 17 {
                        std::panic::panic_any(TypedCrash { frame: 17 });
                    }
                });
            }));
            let payload = caught.expect_err("the task panic must propagate");
            let crash =
                payload.downcast_ref::<TypedCrash>().expect("payload must stay downcastable");
            assert_eq!(*crash, TypedCrash { frame: 17 }, "threads={threads}");
        }
    }

    /// With several panicking tasks, exactly one payload (the first
    /// captured) is re-raised and the pool still shuts down cleanly —
    /// no worker is left wedged, no double panic.
    #[test]
    fn run_rethrows_exactly_one_payload_and_skips_after_poison() {
        let rt = Runtime::new(4);
        let executed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run(1000, |i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i % 3 == 0 {
                    panic!("task {i} died");
                }
            });
        }));
        let payload = caught.expect_err("panics must propagate");
        let msg = payload.downcast_ref::<String>().expect("format payload is a String");
        assert!(msg.contains("died"), "{msg}");
        assert!(
            executed.load(Ordering::Relaxed) < 1000,
            "unclaimed tasks must be skipped once poisoned"
        );
    }

    #[test]
    fn par_chunks_mut_surfaces_worker_panic_payload_typed() {
        for threads in [1usize, 4] {
            let rt = Runtime::new(threads);
            let mut data = vec![0u8; 256];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rt.par_chunks_mut(&mut data, 16, |ci, _| {
                    if ci == 7 {
                        std::panic::panic_any(TypedCrash { frame: 7 });
                    }
                });
            }));
            let payload = caught.expect_err("the chunk panic must propagate");
            assert!(payload.downcast_ref::<TypedCrash>().is_some(), "threads={threads}");
        }
    }

    #[test]
    fn join_surfaces_spawned_panic_payload_typed() {
        for threads in [1usize, 4] {
            let rt = Runtime::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rt.join(
                    || -> u32 { std::panic::panic_any(TypedCrash { frame: 3 }) },
                    std::thread::yield_now,
                );
            }));
            let payload = caught.expect_err("the joined panic must propagate");
            assert!(payload.downcast_ref::<TypedCrash>().is_some(), "threads={threads}");
        }
    }

    #[test]
    fn for_work_degrades_small_workloads_to_serial() {
        let rt = Runtime::new(8);
        assert_eq!(rt.for_work(100).threads(), 1);
        assert_eq!(rt.for_work(PAR_WORK_THRESHOLD).threads(), 8);
    }

    #[test]
    fn thread_count_is_clamped_positive() {
        assert_eq!(Runtime::new(0).threads(), 1);
        assert!(Runtime::max_parallel().threads() >= 1);
        assert_eq!(Runtime::serial().threads(), 1);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5).collect();
        let serial: f64 = data.iter().sum();
        let partials = Mutex::new(0.0f64);
        Runtime::new(4).par_chunks_mut(&mut data.clone(), 1024, |_, chunk| {
            let s: f64 = chunk.iter().sum();
            *partials.lock().unwrap() += s;
        });
        let par = *partials.lock().unwrap();
        assert!((par - serial).abs() < 1e-6);
    }
}
