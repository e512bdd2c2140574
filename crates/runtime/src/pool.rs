//! A scoped-thread job pool for embarrassingly parallel simulation sweeps.
//!
//! Every GPUShield simulation is deterministic and independent of every
//! other (DESIGN.md §4.3), so a `(workload × config × protection)` sweep
//! is pure fan-out; the workers *inside* one simulation are
//! [`with_crew`]'s job. [`run`] executes a batch of closures on `workers` OS threads
//! that self-schedule from a shared queue (each idle worker steals the
//! next unclaimed job), and returns results **in submission order** — so
//! any output assembled from the results is bit-for-bit identical
//! whatever the worker count.
//!
//! Each job runs under `catch_unwind`: one diverging simulation reports as
//! a failed [`JobResult`] instead of killing the whole sweep. Per-job wall
//! time is captured for the machine-readable reports.
//!
//! With `workers <= 1` the batch runs inline on the calling thread, in
//! order — exactly the pre-pool sequential behaviour.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A job that panicked; carries the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The outcome of one job.
#[derive(Debug)]
pub struct JobResult<T> {
    /// Submission index (results come back sorted by this).
    pub index: usize,
    /// Wall-clock time the job spent executing.
    pub wall: Duration,
    /// The job's return value, or the panic that ended it.
    pub result: Result<T, JobPanic>,
}

/// Number of hardware threads, with a serial fallback. Read once per
/// process: the std query re-reads cgroup files on every call, and the
/// simulator consults it on every launch.
pub fn available_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one<T>(index: usize, job: impl FnOnce() -> T) -> JobResult<T> {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(job)).map_err(|p| JobPanic {
        message: panic_message(p.as_ref()),
    });
    JobResult {
        index,
        wall: t0.elapsed(),
        result,
    }
}

/// Runs `jobs` on up to `workers` threads; results in submission order.
///
/// Panicking jobs are isolated (their [`JobResult::result`] is an `Err`);
/// the pool itself never panics on job failure.
pub fn run<T, F>(jobs: Vec<F>, workers: usize) -> Vec<JobResult<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run_one(i, job))
            .collect();
    }

    // Workers claim job indices through one atomic counter (no shared
    // queue lock); each job slot's mutex is locked exactly once, by its
    // unique claimant. Results accumulate in per-worker local vectors —
    // no shared result slots to contend on — and are merged + sorted back
    // into submission order at the end.
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);

    let mut results: Vec<JobResult<T>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = slots[i]
                            .lock()
                            .expect("job slot lock")
                            .take()
                            .expect("each index is claimed exactly once");
                        local.push(run_one(i, job));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            results.extend(h.join().expect("pool worker thread"));
        }
    });
    results.sort_unstable_by_key(|r| r.index);
    results
}

/// A sense-reversing spin barrier for tightly-coupled phase/drain loops.
///
/// All `n` participants block in [`SpinBarrier::wait`] until the last one
/// arrives; the barrier is immediately reusable for the next round. Each
/// participant keeps its own *sense* flag (passed in by `&mut`), flipped
/// every round, so consecutive rounds cannot be confused. Waiting spins
/// briefly (quantum rounds are microseconds apart) and then yields to the
/// scheduler so oversubscribed hosts still make progress.
pub struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        SpinBarrier {
            n: n.max(1),
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Blocks until all participants of this round have arrived.
    pub fn wait(&self, local_sense: &mut bool) {
        let target = !*local_sense;
        *local_sense = target;
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != target {
                spins = spins.wrapping_add(1);
                if spins < 1 << 14 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Driver-side handle for a [`with_crew`] session.
///
/// The driver thread owns the round structure: every [`CrewCtl::round`]
/// releases the parked workers, runs the work function inline as worker 0,
/// and returns once every worker has finished the round.
pub struct CrewCtl<'a> {
    barrier: &'a SpinBarrier,
    sense: Cell<bool>,
    work: &'a (dyn Fn(usize) + Sync),
}

impl CrewCtl<'_> {
    /// Runs one round: all workers (the driver included, as worker 0)
    /// execute the work function once, then rendezvous.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the driver's own work-function call after
    /// completing the rendezvous (so spawned workers are never left
    /// stranded at the barrier).
    pub fn round(&self) {
        let mut s = self.sense.get();
        self.barrier.wait(&mut s); // release the crew into the round
        let r = catch_unwind(AssertUnwindSafe(|| (self.work)(0)));
        self.barrier.wait(&mut s); // join: everyone finished the round
        self.sense.set(s);
        if let Err(p) = r {
            resume_unwind(p);
        }
    }
}

/// Runs `driver` with a persistent crew of `workers` threads executing
/// `work` once per [`CrewCtl::round`] — the fan-out primitive for
/// quantum-stepped simulation, where re-spawning threads every few dozen
/// simulated cycles would dwarf the work itself.
///
/// The crew is spawned once (scoped, borrowing the caller's state), parks
/// on a [`SpinBarrier`] between rounds, and is shut down when `driver`
/// returns. Worker index 0 is the driver thread itself, so `workers == 1`
/// spawns nothing and runs every round inline. A panic inside `work` on
/// any thread is caught, the round completes, and the panic is re-raised
/// on the driver thread.
pub fn with_crew<R>(
    workers: usize,
    work: impl Fn(usize) + Sync,
    driver: impl FnOnce(&CrewCtl) -> R,
) -> R {
    let workers = workers.max(1);
    let barrier = SpinBarrier::new(workers);
    let stop = AtomicBool::new(false);
    let crew_panic: Mutex<Option<String>> = Mutex::new(None);
    let r = std::thread::scope(|scope| {
        for w in 1..workers {
            let barrier = &barrier;
            let stop = &stop;
            let work = &work;
            let crew_panic = &crew_panic;
            scope.spawn(move || {
                let mut sense = false;
                loop {
                    barrier.wait(&mut sense); // wait for a round (or stop)
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| work(w))) {
                        let mut slot = crew_panic.lock().expect("crew panic slot");
                        slot.get_or_insert_with(|| panic_message(p.as_ref()));
                    }
                    barrier.wait(&mut sense); // join the round
                }
            });
        }
        let ctl = CrewCtl {
            barrier: &barrier,
            sense: Cell::new(false),
            work: &work,
        };
        let r = catch_unwind(AssertUnwindSafe(|| driver(&ctl)));
        // Shut the crew down even when the driver unwound: workers are
        // parked at the release barrier and must observe `stop`.
        stop.store(true, Ordering::Release);
        if workers > 1 {
            let mut s = ctl.sense.get();
            barrier.wait(&mut s);
        }
        r
    });
    if let Some(msg) = crew_panic.into_inner().expect("crew panic slot") {
        panic!("crew worker panicked: {msg}");
    }
    match r {
        Ok(v) => v,
        Err(p) => resume_unwind(p),
    }
}

/// [`run`], unwrapping every result and re-raising the first panic.
///
/// For callers that treat any job failure as their own failure (e.g. an
/// experiment whose inner sweep diverged) but still want the fan-out and
/// ordering guarantees.
///
/// # Panics
///
/// Panics with the original message if any job panicked.
pub fn run_all<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    run(jobs, workers)
        .into_iter()
        .map(|r| match r.result {
            Ok(v) => v,
            Err(p) => panic!("job {} failed: {}", r.index, p.message),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order_any_width() {
        let jobs = |n: usize| {
            (0..n)
                .map(|i| {
                    move || {
                        // Uneven work so completion order differs from
                        // submission order under parallel execution.
                        let spin = (n - i) * 1000;
                        let mut acc = i as u64;
                        for k in 0..spin {
                            acc = acc.wrapping_mul(31).wrapping_add(k as u64);
                        }
                        (i, acc)
                    }
                })
                .collect::<Vec<_>>()
        };
        let serial: Vec<_> = run(jobs(64), 1)
            .into_iter()
            .map(|r| r.result.unwrap())
            .collect();
        let wide: Vec<_> = run(jobs(64), 8)
            .into_iter()
            .map(|r| r.result.unwrap())
            .collect();
        assert_eq!(serial, wide);
        for (i, (idx, _)) in serial.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("diverging simulation")),
            Box::new(|| 3),
        ];
        let results = run(jobs, 4);
        assert_eq!(results[0].result, Ok(1));
        assert_eq!(
            results[1].result.as_ref().unwrap_err().message,
            "diverging simulation"
        );
        assert_eq!(results[2].result, Ok(3));
    }

    #[test]
    fn wall_time_is_captured() {
        let results = run(vec![|| std::thread::sleep(Duration::from_millis(5))], 2);
        assert!(results[0].wall >= Duration::from_millis(5));
    }

    #[test]
    fn empty_batch_is_fine() {
        let results: Vec<JobResult<u8>> = run(Vec::<fn() -> u8>::new(), 8);
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 1 failed: boom")]
    fn run_all_propagates_job_panics() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom"))];
        let _ = run_all(jobs, 2);
    }

    #[test]
    fn crew_runs_every_worker_every_round() {
        for workers in [1usize, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            let rounds = 50;
            with_crew(
                workers,
                |w| {
                    hits[w].fetch_add(1, Ordering::Relaxed);
                },
                |ctl| {
                    for _ in 0..rounds {
                        ctl.round();
                    }
                },
            );
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    rounds,
                    "worker {w} of {workers} must run every round"
                );
            }
        }
    }

    #[test]
    fn crew_driver_return_value_passes_through() {
        let v = with_crew(
            3,
            |_| {},
            |ctl| {
                ctl.round();
                42u64
            },
        );
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "crew worker panicked: round bomb")]
    fn crew_worker_panic_is_reraised_on_driver() {
        with_crew(
            4,
            |w| {
                if w == 3 {
                    panic!("round bomb");
                }
            },
            |ctl| ctl.round(),
        );
    }

    #[test]
    fn spin_barrier_round_trips() {
        let b = SpinBarrier::new(3);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut sense = false;
                    for _ in 0..100 {
                        total.fetch_add(1, Ordering::Relaxed);
                        b.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }
}
