//! The pool's thread inventory, as a fact rather than a comment.
//!
//! A `VidsPool` owns no thread: the only threads the engine ever runs are
//! the scoped `vids-pipe-N` workers of a `with_pipeline` session, one per
//! shard, and they are joined before the session call returns — also when a
//! worker panic is rethrown through it. Counted from `/proc/self/task`, so
//! Linux-only; a single `#[test]` in its own file (= its own process)
//! because any other test's threads would be counted too.

#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use vids::core::config::Config;
use vids::core::pool::VidsPool;
use vids::core::sink::NullSink;
use vids::netsim::time::SimTime;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The count once it is back at `expected`. A joined thread has exited, but
/// the kernel may take a moment more to unlist its task; that — never a
/// still-running worker — is all this waits out, and it gives up loudly.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads()
}

#[test]
fn a_pool_runs_threads_only_inside_a_pipeline_session() {
    const SHARDS: usize = 8;
    let before = threads();

    let config = Config::builder().shards(SHARDS).build().unwrap();
    let mut pool = VidsPool::new(config);
    pool.process_batch(&[], SimTime::ZERO, &mut NullSink);
    pool.tick(SimTime::from_secs(1), &mut NullSink);
    assert_eq!(threads(), before, "an {SHARDS}-shard pool spawned a thread");

    pool.with_pipeline(|p| {
        assert_eq!(threads(), before + SHARDS, "one worker per shard");
        p.submit(&mut Vec::new(), SimTime::from_secs(2), &mut NullSink);
        p.tick(SimTime::from_secs(3), &mut NullSink);
        assert_eq!(threads(), before + SHARDS, "sweeps run on the coordinator");
    });
    assert_eq!(
        settled_threads(before),
        before,
        "session workers outlived it"
    );

    // A worker panic is rethrown on the caller; the unwind still joins
    // every worker of the session.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.with_pipeline(|p| {
            p.inject_worker_panic();
            p.submit(&mut Vec::new(), SimTime::from_secs(4), &mut NullSink);
            p.flush(&mut NullSink);
        });
    }));
    std::panic::set_hook(hook);
    assert!(outcome.is_err(), "worker panic must surface on the caller");
    assert_eq!(settled_threads(before), before, "a poisoned session leaked");
}
