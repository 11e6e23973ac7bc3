//! Worker-pool sizing and scoped row-band fan-out.
//!
//! The compute hot path (GEMM, and through it every expert FFN) spreads
//! work across OS threads with `std::thread::scope` — no pool object to
//! manage, no external runtime. Output buffers are split into disjoint
//! contiguous row bands, one worker per band, so the bands can be
//! mutated concurrently without locks and every output element is
//! written by exactly one worker.

use std::sync::OnceLock;

/// Default worker count for parallel tensor ops.
///
/// `TENSOR_THREADS` (a positive integer) overrides the hardware count;
/// unset, empty, or invalid values fall back to
/// [`std::thread::available_parallelism`].
///
/// # Read-once semantics
///
/// The environment variable is read **once per process**, on the first
/// call, and the result is latched in a `OnceLock` forever after.
/// Setting `TENSOR_THREADS` *after* any tensor op has run (directly or
/// transitively — a single `matmul` is enough) has **no effect**; the
/// latch is deliberate so mid-run environment changes can never make
/// two halves of a computation disagree about the worker count. Code
/// that needs a specific count at a specific call site must pass it
/// explicitly via [`Tensor::matmul_with_threads`](crate::Tensor) /
/// `matmul_grouped(_, _, threads)`-style APIs instead of mutating the
/// environment — which is exactly what the benchmarks do to sweep
/// thread counts (relying on the env var once recorded
/// `hardware_threads: 1` sweeps, measuring the latch rather than the
/// kernel). The test `tensor_threads_env_is_latched_after_first_read`
/// pins this behaviour.
pub fn num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TENSOR_THREADS")
            .ok()
            .and_then(|raw| parse_thread_override(&raw))
            .unwrap_or_else(hardware_threads)
    })
}

/// The hardware-reported parallelism (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `TENSOR_THREADS` value; `None` means "use the hardware
/// count" (covers empty, non-numeric, and zero inputs).
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Runs `work` over disjoint row bands of `out` on up to `threads`
/// workers.
///
/// `out` is interpreted as `rows` rows of `row_width` contiguous
/// elements. Each worker receives `(first_row, band)` where `band` is
/// its exclusive slice of `out` starting at `first_row * row_width`.
/// With one band (or one row, or an empty output) the work runs on the
/// calling thread — callers get a serial path with the same `work`
/// closure and therefore identical per-element arithmetic.
pub fn for_each_row_band<F>(out: &mut [f32], rows: usize, row_width: usize, threads: usize, work: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_width);
    let threads = threads.max(1).min(rows.max(1));
    if threads == 1 || row_width == 0 {
        work(0, out);
        return;
    }
    let band_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (index, band) in out.chunks_mut(band_rows * row_width).enumerate() {
            let work = &work;
            scope.spawn(move || work(index * band_rows, band));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 2 "), Some(2));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("many"), None);
        assert_eq!(parse_thread_override("-1"), None);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn tensor_threads_env_is_latched_after_first_read() {
        // Pin the read-once footgun: once num_threads() has been called,
        // later TENSOR_THREADS changes are invisible. (Other tests may
        // have latched the value already; either way the assertions
        // below hold — that is the point of the latch.)
        let first = num_threads();
        std::env::set_var("TENSOR_THREADS", format!("{}", first + 7));
        assert_eq!(
            num_threads(),
            first,
            "TENSOR_THREADS set after first read must be ignored"
        );
        std::env::remove_var("TENSOR_THREADS");
        assert_eq!(num_threads(), first);
    }

    #[test]
    fn bands_cover_every_row_exactly_once() {
        for rows in [0usize, 1, 2, 7, 16] {
            for threads in [1usize, 2, 3, 8, 32] {
                let width = 3;
                let mut out = vec![0.0f32; rows * width];
                for_each_row_band(&mut out, rows, width, threads, |first_row, band| {
                    for (r, row) in band.chunks_mut(width).enumerate() {
                        for v in row {
                            *v += (first_row + r) as f32;
                        }
                    }
                });
                let expect: Vec<f32> = (0..rows)
                    .flat_map(|r| std::iter::repeat_n(r as f32, width))
                    .collect();
                assert_eq!(out, expect, "rows={rows} threads={threads}");
            }
        }
    }

    #[test]
    fn zero_width_rows_run_serially() {
        let mut out: Vec<f32> = vec![];
        for_each_row_band(&mut out, 5, 0, 4, |first_row, band| {
            assert_eq!(first_row, 0);
            assert!(band.is_empty());
        });
    }
}
