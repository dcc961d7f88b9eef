//! Deterministic fan-out of independent per-item work onto host threads.
//!
//! All in-round parallelism in the training engine — clients in
//! [`crate::scheme::Federated`], groups in [`crate::scheme::Gsfl`]
//! (SplitFed's singleton groups included), whole schemes in
//! [`crate::runner::Runner::run_many`] — goes
//! through [`run_indexed`]: items are split into contiguous chunks, each
//! chunk runs sequentially on one thread, and results come back ordered
//! by item index. Because every item's computation is independent and
//! deterministic, the output is **byte-identical** for any thread count,
//! including the fully sequential fallback.
//!
//! Thread counts are clamped through the shared
//! [`gsfl_tensor::threading`] budget, or forced by
//! [`crate::config::ExperimentConfig::client_threads`]. A forced fan-out
//! still books its threads in the budget for as long as it runs, so
//! nested parallelism — e.g. a GEMM inside a client inside a scheme —
//! degrades to sequential instead of oversubscribing the host.

use crate::config::ExperimentConfig;
use crate::{CoreError, Result};
use gsfl_tensor::threading::{request_threads, ThreadGrant};

/// How many threads a scheme may fan out over this round's items, with
/// the budget grant that books them: the config's forced
/// `client_threads` if set (requested from the budget, but fanned out
/// over in full whatever the grant holds), otherwise whatever the
/// process-wide budget grants. The grant must stay alive while the
/// threads run.
pub(crate) fn round_fanout(cfg: &ExperimentConfig, items: usize) -> (usize, ThreadGrant) {
    match cfg.client_threads {
        Some(n) => {
            let threads = n.clamp(1, items.max(1));
            (threads, request_threads(threads))
        }
        None => {
            let grant = request_threads(items);
            (grant.threads().min(items.max(1)), grant)
        }
    }
}

/// Runs `f(0..items)` across `threads` host threads in contiguous
/// chunks, returning results ordered by item index. `threads <= 1` (or a
/// single item) runs inline with no spawn. A panicking worker surfaces
/// as [`CoreError::Config`]. Every worker is joined before any failure
/// is reported; failures surface in chunk order (and within a chunk, in
/// item order), so the winning error always belongs to the earliest
/// failing region of the index space.
pub(crate) fn run_indexed<T, F>(items: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if items == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, items);
    if threads == 1 {
        return (0..items).map(&f).collect();
    }
    // Join ALL handles (no short-circuit): abandoning a panicked handle
    // would make the scope re-raise the panic instead of returning Err.
    let chunk_results: Vec<Result<Vec<Result<T>>>> = std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let len = (items - start).div_ceil(threads - t);
            let range = start..start + len;
            handles.push(scope.spawn(move || range.map(f).collect::<Vec<Result<T>>>()));
            start += len;
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().map_err(|payload| {
                    CoreError::Config(format!(
                        "worker thread panicked: {}",
                        crate::runner::panic_message(payload.as_ref())
                    ))
                })
            })
            .collect()
    });
    let mut out = Vec::with_capacity(items);
    for chunk in chunk_results {
        for r in chunk? {
            out.push(r?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsfl_tensor::threading::extra_threads_in_use;

    #[test]
    fn preserves_item_order_for_any_thread_count() {
        for threads in [1usize, 2, 3, 7, 64] {
            let got = run_indexed(10, threads, |i| Ok(i * i)).unwrap();
            assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert!(run_indexed(0, 4, Ok).unwrap().is_empty());
        assert_eq!(run_indexed(1, 4, |i| Ok(i + 1)).unwrap(), vec![1]);
    }

    #[test]
    fn first_error_in_index_order_wins() {
        let err = run_indexed(8, 3, |i| {
            if i >= 2 {
                Err(CoreError::Config(format!("boom {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom 2"), "{err}");
    }

    #[test]
    fn worker_panic_is_reported() {
        let err = run_indexed(4, 2, |i| {
            if i == 3 {
                panic!("kaput");
            }
            Ok(i)
        })
        .unwrap_err();
        assert!(err.to_string().contains("kaput"), "{err}");
    }

    #[test]
    fn forced_fanout_books_its_threads_in_the_budget() {
        let cfg = ExperimentConfig::builder()
            .clients(4)
            .groups(2)
            .client_threads(3)
            .build()
            .unwrap();
        let (threads, grant) = round_fanout(&cfg, 8);
        assert_eq!(threads, 3, "the forced count is fanned out in full");
        // The grant leases up to the forced count; whatever it holds is
        // unavailable to nested GEMMs until it drops. Other tests in this
        // binary may hold grants concurrently, so only local invariants
        // are asserted.
        assert!(grant.threads() >= 1 && grant.threads() <= threads);
        assert!(
            extra_threads_in_use() + 1 >= grant.threads(),
            "a held grant stays booked in the budget"
        );
        let (threads, grant) = round_fanout(&cfg, 2);
        assert_eq!(threads, 2, "fan-out never exceeds the item count");
        assert!(grant.threads() <= 2, "the grant asks for the clamped count");
    }
}
