//! `mjoin-pool` — a single shared thread pool for every heavy operator in
//! the workspace.
//!
//! The parallel operators (`par_join`, `par_semijoin`, `par_project`) and the
//! DAG-scheduled program executor all submit work here instead of spawning
//! ad-hoc scoped threads per call. Workers are started once and reused, so
//! the per-call cost of going parallel is a queue push, not a `clone(2)`.
//! Like the in-tree `fxhash`, this is implemented on `std` alone to stay
//! within the sanctioned dependency set (the container image has no cargo
//! registry access); the API is a deliberately small rayon-style surface:
//! [`scope`] and [`par_map`].
//!
//! Deadlock freedom: a thread that waits for a scope to finish *helps* — it
//! pops and runs queued tasks while it waits — so nested parallelism (a
//! parallel operator inside a parallel executor level) always makes
//! progress, even on a single-core host.
//!
//! Determinism: all helpers return results in submission order, regardless
//! of which worker ran what, so parallel operators built on them produce
//! bit-identical output across runs and thread counts.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A queued unit of work: a lifetime-erased closure plus the scope that is
/// waiting on it. See the safety argument on [`Scope::spawn`].
struct Task {
    run: Box<dyn FnOnce() + Send>,
    scope: Arc<ScopeState>,
    /// Enqueue time, recorded only while tracing is enabled (queue wait =
    /// dequeue − enqueue).
    queued_at: Option<std::time::Instant>,
}

/// Completion tracking for one [`scope`] call.
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    /// First panic payload from any task, re-thrown at scope exit.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signaled when the queue gains a task or any task completes. Only
    /// scope waiters ([`wait_scope`]) block on this; idle workers park on
    /// [`Shared::park`] instead, so task completions never wake the whole
    /// worker herd.
    cv: Condvar,
    /// Parked workers block here; [`Scope::spawn`] notifies it once per
    /// push while any worker is parked.
    park: Condvar,
    /// Workers currently parked. Incremented under the queue lock before
    /// waiting (and the spawner reads it under the same lock), so a push
    /// can never miss a parking worker.
    parked: AtomicUsize,
    /// Lifetime count of park events (a worker going to sleep).
    parks: AtomicU64,
    /// Lifetime count of productive unparks (woke up and found work).
    unparks: AtomicU64,
    /// Lifetime count of unproductive wakeups (woke up to an empty queue —
    /// a spurious wakeup or a lost race for the task). A quiescent pool
    /// must not accumulate these; the regression test checks it.
    empty_wakeups: AtomicU64,
    /// Number of worker threads started so far.
    workers: AtomicUsize,
    /// Serializes pool growth: [`ThreadPool::ensure_at_least`] must read
    /// `workers` and spawn the difference atomically, or two concurrent
    /// callers both see the old count and over-spawn.
    grow: Mutex<()>,
}

/// The process-wide pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
}

/// Default worker count: `MJOIN_THREADS` if set, else the host parallelism.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("MJOIN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The global pool, started on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let pool = ThreadPool::empty();
        pool.add_workers(default_workers());
        pool
    })
}

/// Number of workers in the global pool (the caller thread helps too, so
/// effective parallelism is one more than this while a scope waits).
pub fn current_num_threads() -> usize {
    global().shared.workers.load(Ordering::Relaxed)
}

/// Grow the global pool to at least `n` workers (used by benchmarks sweeping
/// thread counts above the host parallelism). Never shrinks.
pub fn ensure_at_least(n: usize) {
    global().ensure_at_least(n);
}

/// Block until every worker of the global pool is parked (fully idle,
/// burning no CPU) or `timeout` elapses; returns whether it quiesced. A
/// graceful server shutdown calls this after draining in-flight requests so
/// the process exits with workers asleep instead of mid-spin.
pub fn quiesce(timeout: std::time::Duration) -> bool {
    global().quiesce(timeout)
}

impl ThreadPool {
    fn empty() -> Self {
        ThreadPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                park: Condvar::new(),
                parked: AtomicUsize::new(0),
                parks: AtomicU64::new(0),
                unparks: AtomicU64::new(0),
                empty_wakeups: AtomicU64::new(0),
                workers: AtomicUsize::new(0),
                grow: Mutex::new(()),
            }),
        }
    }

    /// Grow this pool to at least `n` workers; never shrinks. The
    /// read-and-grow is serialized under a lock so concurrent callers can
    /// never over-spawn past the largest request.
    pub fn ensure_at_least(&self, n: usize) {
        let _g = self.shared.grow.lock().expect("pool grow lock poisoned");
        let have = self.shared.workers.load(Ordering::Relaxed);
        if n > have {
            self.add_workers(n - have);
        }
    }

    fn add_workers(&self, n: usize) {
        for _ in 0..n {
            let shared = Arc::clone(&self.shared);
            let idx = self.shared.workers.fetch_add(1, Ordering::Relaxed);
            thread::Builder::new()
                .name(format!("mjoin-pool-{idx}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
    }

    /// Run `f` with a [`Scope`] that submits to *this* pool; returns once
    /// every spawned task has finished. The free function [`scope`] is the
    /// same thing against the global pool.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        scope_on(&self.shared, f)
    }

    /// Workers of this pool currently parked (asleep, burning no CPU).
    pub fn parked_workers(&self) -> usize {
        self.shared.parked.load(Ordering::SeqCst)
    }

    /// Lifetime `(parks, unparks, empty_wakeups)` counters: sleep events,
    /// wakeups that found work, and wakeups that found the queue empty. A
    /// quiescent pool accumulates none of the three.
    pub fn park_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.parks.load(Ordering::Relaxed),
            self.shared.unparks.load(Ordering::Relaxed),
            self.shared.empty_wakeups.load(Ordering::Relaxed),
        )
    }

    /// Block until every worker of this pool is parked or `timeout`
    /// elapses; returns whether the pool fully quiesced. Workers park on
    /// their own within microseconds of the queue draining ([`SPIN_POPS`]);
    /// this just waits for that to have happened.
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let workers = self.shared.workers.load(Ordering::Relaxed);
            if self.parked_workers() >= workers {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// Empty pop attempts (with a `yield_now` between each) before an idle
/// worker parks. Short on purpose: a stream of submissions keeps workers
/// hot, while a quiescent pool goes fully to sleep within microseconds
/// instead of spinning or thundering awake on every task completion.
const SPIN_POPS: usize = 16;

fn worker_loop(shared: &Shared) {
    loop {
        let mut task = None;
        for _ in 0..SPIN_POPS {
            if let Some(t) = shared
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
                task = Some(t);
                break;
            }
            thread::yield_now();
        }
        let task = task.unwrap_or_else(|| park_until_task(shared));
        run_task(shared, task, false);
    }
}

/// Park on [`Shared::park`] until a task arrives. Workers never block on
/// the completion condvar, so "quiescent pool" deterministically means
/// "every worker parked here, burning no CPU".
fn park_until_task(shared: &Shared) -> Task {
    let mut q = shared.queue.lock().expect("pool queue poisoned");
    loop {
        if let Some(t) = q.pop_front() {
            return t;
        }
        shared.parked.fetch_add(1, Ordering::SeqCst);
        shared.parks.fetch_add(1, Ordering::Relaxed);
        mjoin_trace::add("pool.parks", 1);
        q = shared.park.wait(q).expect("pool queue poisoned");
        shared.parked.fetch_sub(1, Ordering::SeqCst);
        if q.is_empty() {
            shared.empty_wakeups.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.unparks.fetch_add(1, Ordering::Relaxed);
            mjoin_trace::add("pool.unparks", 1);
        }
    }
}

/// Run one dequeued task; `helper` marks a waiting scope stealing work
/// instead of a dedicated worker (the distinction matters for trace data:
/// a high steal count means the workers were outnumbered by the load).
fn run_task(shared: &Shared, task: Task, helper: bool) {
    let Task {
        run,
        scope,
        queued_at,
    } = task;
    let mut sp = mjoin_trace::span("pool", "task");
    if sp.is_active() {
        let wait_us = queued_at.map_or(0, |t| t.elapsed().as_micros() as u64);
        sp.arg("wait_us", wait_us);
        sp.arg("helper", i64::from(helper));
        mjoin_trace::add("pool.tasks", 1);
        mjoin_trace::add("pool.task_wait_us", wait_us);
        if helper {
            mjoin_trace::add("pool.helper_steals", 1);
        }
    }
    let result = panic::catch_unwind(AssertUnwindSafe(run));
    drop(sp);
    if let Err(payload) = result {
        let mut slot = scope.panic.lock().expect("panic slot poisoned");
        slot.get_or_insert(payload);
    }
    // Decrement under the queue lock so a waiter that just checked `pending`
    // cannot miss the notification.
    let _guard = shared.queue.lock().expect("pool queue poisoned");
    scope.pending.fetch_sub(1, Ordering::SeqCst);
    shared.cv.notify_all();
}

/// A handle for spawning tasks that may borrow from the enclosing stack
/// frame; all tasks are complete when [`scope`] returns.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    shared: &'env Shared,
    /// Invariant over `'env`, as in `std::thread::scope`.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queue `f` on the pool. It may borrow anything that outlives the
    /// `scope` call.
    // The workspace denies unsafe_code; this is the one sanctioned site —
    // the lifetime erasure below, justified by the SAFETY comment.
    #[allow(unsafe_code)]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `scope` does not return (and therefore `'env` borrows stay
        // live) until `pending` drops to zero, i.e. until this closure has
        // finished running. Erasing the lifetime is the standard scoped-pool
        // technique; the wait in `wait_scope` is unconditional (it runs even
        // if the scope body panics).
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let task = Task {
            run: boxed,
            scope: Arc::clone(&self.state),
            queued_at: mjoin_trace::enabled().then(std::time::Instant::now),
        };
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        q.push_back(task);
        if mjoin_trace::enabled() {
            mjoin_trace::record_max("pool.max_queue_depth", q.len() as u64);
        }
        // `parked` is read under the same lock the parker incremented it
        // under, so this push either wakes a parked worker or is already
        // visible to a worker still spinning toward its pop.
        if self.shared.parked.load(Ordering::SeqCst) > 0 {
            self.shared.park.notify_one();
        }
        self.shared.cv.notify_one();
    }
}

/// Wait for every task of `state` to finish, helping with queued work (ours
/// or anyone's) while waiting.
fn wait_scope(shared: &Shared, state: &Arc<ScopeState>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if state.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                if let Some(t) = q.pop_front() {
                    break Some(t);
                }
                q = shared.cv.wait(q).expect("pool queue poisoned");
            }
        };
        if let Some(t) = task {
            run_task(shared, t, true);
        }
    }
}

/// Run `f` with a [`Scope`] on the global pool; returns once every spawned
/// task has finished. The first panic from any task (or from `f` itself) is
/// propagated.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    scope_on(&global().shared, f)
}

/// [`scope`] against an explicit pool's shared state.
fn scope_on<'env, F, R>(shared: &'env Shared, f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let state = Arc::new(ScopeState::new());
    let s = Scope {
        state: Arc::clone(&state),
        shared,
        _marker: PhantomData,
    };
    let body = panic::catch_unwind(AssertUnwindSafe(|| f(&s)));
    wait_scope(shared, &state);
    let task_panic = state.panic.lock().expect("panic slot poisoned").take();
    match body {
        Ok(r) => {
            if let Some(p) = task_panic {
                panic::resume_unwind(p);
            }
            r
        }
        Err(p) => panic::resume_unwind(p),
    }
}

/// Apply `f` to each item of `items` in parallel (one task per item),
/// returning results in input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));
    {
        let slots = &slots;
        let f = &f;
        scope(|s| {
            for (i, item) in items.into_iter().enumerate() {
                s.spawn(move || {
                    let r = f(item);
                    *slots[i].lock().expect("slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scope_borrows_stack_data() {
        let data: Vec<u64> = (0..64).collect();
        let total = AtomicU64::new(0);
        scope(|s| {
            for chunk in data.chunks(8) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let out = par_map((0..8).collect::<Vec<u64>>(), |x| {
            par_map((0..8).collect::<Vec<u64>>(), move |y| x * y)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| x * 28).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn task_panic_propagates() {
        let r = panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        });
        assert!(r.is_err());
        // Pool is still usable afterwards.
        assert_eq!(par_map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn ensure_at_least_grows() {
        let before = current_num_threads();
        ensure_at_least(before + 1);
        assert!(current_num_threads() > before);
    }

    /// Regression: `ensure_at_least` used to read `workers` outside any lock
    /// and then spawn the difference, so N concurrent callers each saw the
    /// old count and the pool over-spawned up to N times the request. The
    /// read-and-grow must be atomic. Uses a standalone pool because other
    /// tests grow the global one concurrently.
    #[test]
    fn concurrent_ensure_at_least_never_over_spawns() {
        let pool = ThreadPool::empty();
        let target = 6;
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| pool.ensure_at_least(target));
            }
        });
        assert_eq!(pool.shared.workers.load(Ordering::Relaxed), target);
    }

    /// `quiesce` observes the pool going fully idle after a burst of work.
    #[test]
    fn quiesce_waits_for_all_workers_to_park() {
        let pool = ThreadPool::empty();
        pool.ensure_at_least(2);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    std::hint::black_box(42);
                });
            }
        });
        assert!(
            pool.quiesce(std::time::Duration::from_secs(5)),
            "pool never quiesced after its queue drained"
        );
        assert_eq!(pool.parked_workers(), 2);
    }

    /// Regression: workers used to block on the completion condvar, so every
    /// finished task thundered the whole herd awake (and before that, an
    /// idle pool could spin). A quiescent pool must have every worker parked
    /// and accumulate zero wakeups while nothing is submitted — then wake
    /// and run new work. Uses a standalone pool so activity on the global
    /// pool from other tests can't interfere.
    #[test]
    fn quiescent_pool_parks_and_burns_no_wakeups() {
        let pool = ThreadPool::empty();
        pool.ensure_at_least(3);
        let hits = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);

        // All workers go to sleep once the burst drains.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.parked_workers() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never parked: {} of 3 after burst",
                pool.parked_workers()
            );
            thread::yield_now();
        }

        // And stay asleep: no wakeups of any kind while the pool is idle.
        let (parks_before, unparks_before, empty_before) = pool.park_stats();
        thread::sleep(std::time::Duration::from_millis(150));
        assert_eq!(pool.parked_workers(), 3, "a parked worker woke unprompted");
        let (parks_after, unparks_after, empty_after) = pool.park_stats();
        assert_eq!(parks_after, parks_before, "idle pool re-parked");
        assert_eq!(unparks_after, unparks_before, "idle pool unparked");
        assert_eq!(empty_after, empty_before, "idle pool had empty wakeups");

        // A new submission unparks a worker, which must run the task while
        // the submitting thread is still inside the scope body — the
        // helping-waiter path hasn't started yet, so only a woken worker
        // can complete it.
        pool.scope(|s| {
            let hits = &hits;
            s.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while hits.load(Ordering::Relaxed) < 65 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "parked workers never picked up the new task"
                );
                thread::yield_now();
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 65);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], |x| x * 3), vec![21]);
    }
}
