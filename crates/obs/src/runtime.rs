//! Host-runtime helpers shared across the workspace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-process override installed by [`set_available_workers`]; 0 = no override.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker threads available on this host. Every consumer (the rollout engine,
/// sharded matmuls) sizes its thread pools off this single value.
///
/// The host parallelism is queried from the OS once per process, but an
/// explicit [`set_available_workers`] override takes precedence *even after
/// the first query* — previously the value was latched in a `OnceLock` at the
/// first matmul, so a bench could not pin its thread count once anything had
/// touched the tensor path. Perf-smoke runs on shared CI hosts pin this to 1
/// via the bench `--workers` flag for reproducible timings.
pub fn available_workers() -> usize {
    let over = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Overrides the worker count [`available_workers`] reports for the rest of
/// the process (0 restores OS detection). Benches use this to make timings
/// reproducible on shared hosts whose visible core count varies.
pub fn set_available_workers(n: usize) {
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolves a requested worker count: 0 means one per available core.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        available_workers()
    } else {
        requested
    }
}

/// Runs `f` on every part and returns the results in part order: part 0 on
/// the calling thread (one spawn fewer, and no core idles waiting on the
/// others), every other part on a thread of its own under one
/// [`std::thread::scope`]. The one fan-out in the workspace: matmul shares,
/// a batch's simulations and a serving wave's shares all go through it.
///
/// # Panics
/// When a part panics, re-raises that part's own payload (the earliest
/// panicking part's) once every thread has finished.
pub fn fork_join<T: Send, R: Send>(
    parts: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    let mut parts = parts.into_iter();
    let Some(own) = parts.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let rest: Vec<_> = parts.map(|part| s.spawn(move || f(part))).collect();
        let mut out = vec![f(own)];
        let joined: Vec<_> = rest.into_iter().map(|h| h.join()).collect();
        out.extend(joined.into_iter().map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_host_parallelism() {
        assert!(available_workers() >= 1);
        assert_eq!(resolve_workers(0), available_workers());
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn override_wins_even_after_first_query() {
        let detected = available_workers(); // latches the OnceLock
        set_available_workers(detected + 7);
        assert_eq!(available_workers(), detected + 7);
        assert_eq!(resolve_workers(0), detected + 7);
        set_available_workers(0); // restore OS detection for other tests
        assert_eq!(available_workers(), detected);
    }

    #[test]
    fn fork_join_returns_results_in_part_order() {
        let parts: Vec<usize> = (0..7).collect();
        assert_eq!(fork_join(parts, |i| i * i), [0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn fork_join_runs_part_zero_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fork_join(0..3, |_| std::thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn fork_join_of_no_part_or_one_part_spawns_nothing() {
        assert!(fork_join(Vec::<u8>::new(), |x| x).is_empty());
        let caller = std::thread::current().id();
        assert_eq!(fork_join([5], |x| (x, std::thread::current().id())), [(5, caller)]);
    }

    #[test]
    fn fork_join_reraises_a_later_parts_own_panic() {
        let caught = std::panic::catch_unwind(|| {
            fork_join(0..4, |i| {
                if i == 2 {
                    panic!("part 2 failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part 2 failed"));
    }
}
