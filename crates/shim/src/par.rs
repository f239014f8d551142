//! Scoped-thread data-parallel helpers.
//!
//! Replaces the two rayon shapes the workspace uses: an indexed parallel
//! map over a slice (`par_iter().enumerate().map(...)`) and parallel
//! mutation of fixed-size output chunks (`par_chunks_mut`). Work is
//! statically partitioned into contiguous per-thread ranges — the
//! workloads here (per-candidate timing-model evaluations, per-row GEMM
//! accumulation) are uniform enough that stealing would buy nothing.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// How many worker threads `jobs` uniform jobs should fan out to: one
/// per core, never more than there are jobs, and at least one. Callers
/// that pre-size per-worker state (e.g. batched-GEMM workspaces) use
/// this to know the fan-out before spawning.
///
/// The core count is probed once per process: on Linux the probe reads
/// the affinity mask and cgroup quota files (~20 µs), which would
/// otherwise be paid on every parallel call.
pub fn worker_count(jobs: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    cores.min(jobs).max(1)
}

/// Parallel indexed for-each over mutable items with per-worker mutable
/// state.
///
/// `items` is split into one contiguous range per worker (at most
/// `states.len()` workers) and each worker calls `f(index, item, state)`
/// for every item in its range, with exclusive access to both the item
/// and its own state slot. This is the batched-GEMM harness: each item
/// is one batch entry's output slice, each state a reusable
/// `Workspace`-style arena, so a steady-state batch loop allocates
/// nothing while entries still execute in parallel.
///
/// # Panics
/// Panics if `states` is empty while `items` is not.
pub fn par_items_mut<I, S, F>(items: &mut [I], states: &mut [S], f: F)
where
    I: Send,
    S: Send,
    F: Fn(usize, &mut I, &mut S) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    assert!(!states.is_empty(), "par_items_mut needs at least one state");
    let threads = worker_count(n).min(states.len());
    if threads <= 1 {
        let state = &mut states[0];
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item, state);
        }
        return;
    }
    let per = n.div_ceil(threads);
    std::thread::scope(|s| {
        for ((t, chunk), state) in items.chunks_mut(per).enumerate().zip(states.iter_mut()) {
            let f = &f;
            s.spawn(move || {
                let base = t * per;
                for (i, item) in chunk.iter_mut().enumerate() {
                    f(base + i, item, state);
                }
            });
        }
    });
}

/// Parallel indexed map: `out[i] = f(i, &items[i])`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = worker_count(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, v)| f(i, v)).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let per = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, slots) in out.chunks_mut(per).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = t * per;
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + i, &items[base + i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every slot filled"))
        .collect()
}

/// Parallel map over contiguous index ranges: `0..n` is split into one
/// range per worker and `f(range)` runs once per worker. Results come
/// back in range order, so folds over them are deterministic regardless
/// of thread scheduling. Unlike [`par_map`] the caller keeps per-thread
/// state alive for a whole range (e.g. a reusable register arena), which
/// is what the VM's parallel work-group launch needs.
pub fn par_range_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = worker_count(n);
    if threads <= 1 {
        return vec![f(0..n)];
    }
    let per = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + per).min(n);
            let f = &f;
            handles.push(s.spawn(move || f(start..end)));
            start = end;
        }
        for h in handles {
            out.push(Some(h.join().expect("par_range_map worker panicked")));
        }
    });
    out.into_iter().map(|v| v.expect("worker result")).collect()
}

/// Parallel mutation of consecutive `chunk`-sized pieces of `data`;
/// `f(chunk_index, chunk)` like `par_chunks_mut().enumerate()`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = data.len().div_ceil(chunk);
    let threads = worker_count(n_chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let chunks_per_thread = n_chunks.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = data;
        let mut first_chunk = 0usize;
        while !rest.is_empty() {
            let take = (chunks_per_thread * chunk).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = first_chunk;
            first_chunk += chunks_per_thread;
            let f = &f;
            s.spawn(move || {
                for (i, c) in head.chunks_mut(chunk).enumerate() {
                    f(base + i, c);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<usize> = (0..1037).collect();
        let seq: Vec<usize> = items.iter().enumerate().map(|(i, v)| i * 3 + v).collect();
        assert_eq!(par_map(&items, |i, v| i * 3 + v), seq);
        assert!(par_map::<usize, usize, _>(&[], |_, v| *v).is_empty());
    }

    #[test]
    fn par_range_map_covers_all_indices_in_order() {
        let parts = par_range_map(1003, |r| r.clone());
        let mut flat: Vec<usize> = Vec::new();
        for r in parts {
            flat.extend(r);
        }
        assert_eq!(flat, (0..1003).collect::<Vec<_>>());
        assert!(par_range_map(0, |r| r.len()).is_empty());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 7, |idx, c| {
            for v in c.iter_mut() {
                *v += idx + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7 + 1, "element {i}");
        }
    }

    #[test]
    fn par_items_mut_visits_every_item_once_with_worker_state() {
        // Each item records (index it saw, owning state's tag); every
        // item must be visited exactly once and the per-state counts
        // must sum to n.
        let n = 997;
        let mut items: Vec<(usize, Option<usize>)> = (0..n).map(|_| (0, None)).collect();
        let mut states: Vec<(usize, usize)> = (0..4).map(|t| (t, 0)).collect();
        par_items_mut(&mut items, &mut states, |i, item, (tag, count)| {
            item.0 += i + 1;
            item.1 = Some(*tag);
            *count += 1;
        });
        let total: usize = states.iter().map(|(_, c)| c).sum();
        assert_eq!(total, n);
        for (i, (v, owner)) in items.iter().enumerate() {
            assert_eq!(*v, i + 1, "item {i} visited once with its own index");
            assert!(owner.is_some(), "item {i} owned by some worker");
        }
        // Zero items with an empty state set is a no-op, not a panic.
        par_items_mut(
            &mut [] as &mut [u8],
            &mut [] as &mut [u8],
            |_, _, _| unreachable!(),
        );
    }

    #[test]
    fn par_items_mut_uses_at_most_the_given_states() {
        let mut items = vec![0u8; 100];
        let mut states = vec![0usize; 1];
        par_items_mut(&mut items, &mut states, |_, item, c| {
            *item = 1;
            *c += 1;
        });
        assert_eq!(states[0], 100);
        assert!(items.iter().all(|&v| v == 1));
        assert!(worker_count(8) >= 1);
    }

    #[test]
    fn chunk_larger_than_data_is_one_chunk() {
        let mut data = vec![1u32; 5];
        par_chunks_mut(&mut data, 100, |idx, c| {
            assert_eq!(idx, 0);
            for v in c.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(data, vec![9; 5]);
    }
}
