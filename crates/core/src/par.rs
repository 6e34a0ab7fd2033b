//! Two-way fork–join for the start-up path (DESIGN.md §9).
//!
//! Loading a snapshot and building its serving indexes split their work
//! in two by data — two id halves, two layers, two groups of sections —
//! and run the halves on two cores. The split is fixed: the results are
//! combined in one order whatever the scheduling, so a net, an index or a
//! snapshot built this way is exactly the one a single thread builds.

use std::panic;
use std::thread;

/// Run `a` on the calling thread and `b` on a second one, and return both
/// results once both are done. A panic in either reaches the caller as
/// that same panic, after the other half has finished.
pub fn join<A, B>(a: impl FnOnce() -> A, b: impl FnOnce() -> B + Send) -> (A, B)
where
    B: Send,
{
    thread::scope(|s| {
        let second = s.spawn(b);
        let first = a();
        let second = second
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        (first, second)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_halves_run_and_return_in_order() {
        let data: Vec<u64> = (0..1000).collect();
        let (lo, hi) = data.split_at(500);
        let (a, b) = join(|| lo.iter().sum::<u64>(), || hi.iter().sum::<u64>());
        assert_eq!((a, b), (124_750, 374_750));
    }

    #[test]
    fn a_panic_on_the_second_thread_reaches_the_caller() {
        let caught = panic::catch_unwind(|| join(|| 1, || -> u32 { panic!("second half failed") }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"second half failed"));
    }

    #[test]
    fn a_panic_on_the_calling_thread_waits_for_the_second() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        let finished = AtomicBool::new(false);
        let (go, wait) = mpsc::channel();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            join(
                // The second half can only finish once this one is failing.
                || -> u32 {
                    go.send(()).ok();
                    panic!("first half failed")
                },
                || {
                    let wait = wait;
                    wait.recv().ok();
                    finished.store(true, Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"first half failed"));
        assert!(
            finished.load(Ordering::SeqCst),
            "the panic reaches the caller only after the second half is done"
        );
    }
}
