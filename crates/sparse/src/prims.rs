//! Thrust-style data-parallel primitives.
//!
//! Algorithm 1 and 2 of the paper are written in terms of
//! `stable_sort_by_key` and `reduce_by_key`; these are those primitives.
//! The paper notes that "other GPU architectures can be supported provided
//! implementations exist for the stable_sort_by_key and reduce_by_key
//! algorithms" — this module is exactly that implementation for the
//! rayon/CPU backend.

use rayon::prelude::*;

/// Threshold below which sorts run sequentially (rayon overhead dominates).
const PAR_THRESHOLD: usize = 1 << 13;

/// Stable sort of `(key, value)` pairs by key.
///
/// Equivalent of `thrust::stable_sort_by_key`.
pub fn stable_sort_by_key<K, V>(keys: &mut [K], vals: &mut [V])
where
    K: Ord + Copy + Send + Sync,
    V: Copy + Send + Sync,
{
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    let mut pairs: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
    if pairs.len() >= PAR_THRESHOLD {
        pairs.par_sort_by_key(|&(k, _)| k);
    } else {
        pairs.sort_by_key(|&(k, _)| k);
    }
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        keys[i] = k;
        vals[i] = v;
    }
}

/// Fixed segment width for the parallel `reduce_by_key` path. A compile-time
/// constant (never derived from the thread count) so segment boundaries — and
/// therefore the work partition — are identical no matter how many threads
/// execute them.
const REDUCE_CHUNK: usize = 1 << 12;

/// Reduce runs of equal adjacent keys, summing their values.
///
/// Equivalent of `thrust::reduce_by_key` with a `plus` reduction: the
/// input is expected to be key-sorted (as after [`stable_sort_by_key`]);
/// the output contains each distinct key once, with the sum of its values.
///
/// **Determinism.** Every run of equal keys is summed left-to-right in input
/// order, in both the serial and the parallel path. The parallel path cuts
/// the input at fixed `REDUCE_CHUNK` boundaries *snapped forward to the next
/// run start*, so no run ever spans two segments; each segment is then
/// reduced serially and the per-segment outputs are concatenated in segment
/// order. The result is bitwise identical to the serial reduction for any
/// thread count, including one.
pub fn reduce_by_key<K>(keys: &[K], vals: &[f64]) -> (Vec<K>, Vec<f64>)
where
    K: Eq + Copy + Send + Sync,
{
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    let n = keys.len();
    if n < PAR_THRESHOLD {
        return reduce_by_key_serial(keys, vals);
    }

    // Segment boundaries: multiples of REDUCE_CHUNK, snapped forward past any
    // run of equal keys straddling them.
    let mut bounds = vec![0usize];
    let mut b = REDUCE_CHUNK;
    while b < n {
        let mut snapped = b;
        while snapped < n && keys[snapped] == keys[snapped - 1] {
            snapped += 1;
        }
        if snapped < n && snapped > *bounds.last().unwrap() {
            bounds.push(snapped);
        }
        b += REDUCE_CHUNK;
    }
    bounds.push(n);

    let nseg = bounds.len() - 1;
    let parts: Vec<(Vec<K>, Vec<f64>)> = (0..nseg)
        .into_par_iter()
        .map(|s| reduce_by_key_serial(&keys[bounds[s]..bounds[s + 1]], &vals[bounds[s]..bounds[s + 1]]))
        .collect();

    let total: usize = parts.iter().map(|(k, _)| k.len()).sum();
    let mut out_keys = Vec::with_capacity(total);
    let mut out_vals = Vec::with_capacity(total);
    for (k, v) in parts {
        out_keys.extend(k);
        out_vals.extend(v);
    }
    (out_keys, out_vals)
}

fn reduce_by_key_serial<K>(keys: &[K], vals: &[f64]) -> (Vec<K>, Vec<f64>)
where
    K: Eq + Copy,
{
    let mut out_keys = Vec::with_capacity(keys.len());
    let mut out_vals = Vec::with_capacity(vals.len());
    let mut i = 0;
    while i < keys.len() {
        let k = keys[i];
        let mut acc = vals[i];
        let mut j = i + 1;
        while j < keys.len() && keys[j] == k {
            acc += vals[j];
            j += 1;
        }
        out_keys.push(k);
        out_vals.push(acc);
        i = j;
    }
    (out_keys, out_vals)
}

/// Segmented ordered gather-sum: for each segment `s`,
///
/// ```text
/// out[s] += Σ_{p in indptr[s]..indptr[s+1]} src[perm[p]]   (summed in p order)
/// ```
///
/// This is the deterministic replacement for an atomic scatter-add: instead
/// of many writers racing on `out[s]`, a precomputed permutation groups each
/// destination's contributions, and one task sums them in a fixed order.
/// Segments are independent, so the loop parallelises over `s` with no
/// change to any segment's summation order (§3.2's assembly scatter, minus
/// the non-determinism the paper accepts on GPUs).
pub fn segmented_gather_sum(indptr: &[usize], perm: &[u32], src: &[f64], out: &mut [f64]) {
    assert_eq!(indptr.len(), out.len() + 1, "indptr/out length mismatch");
    assert_eq!(*indptr.last().unwrap(), perm.len(), "indptr/perm length mismatch");
    // Segments go in fixed `GATHER_CHUNK`-segment blocks, a block per task
    // from `PAR_THRESHOLD` segments on (a plain loop per block: no
    // per-element iterator call).
    let block = |b: usize, out: &mut [f64]| {
        let s0 = b * GATHER_CHUNK;
        let segments = indptr[s0..=s0 + out.len()].windows(2);
        for (o, w) in out.iter_mut().zip(segments) {
            let mut acc = 0.0;
            for &p in &perm[w[0]..w[1]] {
                acc += src[p as usize];
            }
            *o += acc;
        }
    };
    if out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(GATHER_CHUNK)
            .enumerate()
            .for_each(|(b, o)| block(b, o));
    } else {
        block(0, out);
    }
}

/// Segments per block of [`segmented_gather_sum`].
const GATHER_CHUNK: usize = 1 << 10;

/// Exclusive prefix sum; returns a vector one longer than the input whose
/// last element is the total (CSR `indptr` convention).
pub fn exclusive_scan(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Gather: `out[i] = src[map[i]]`.
pub fn gather<T: Copy + Send + Sync>(src: &[T], map: &[usize]) -> Vec<T> {
    if map.len() >= PAR_THRESHOLD {
        map.par_iter().map(|&i| src[i]).collect()
    } else {
        map.iter().map(|&i| src[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_by_key_sorts_and_is_stable() {
        let mut keys = vec![3u64, 1, 3, 2, 1];
        let mut vals = vec![30.0, 10.0, 31.0, 20.0, 11.0];
        stable_sort_by_key(&mut keys, &mut vals);
        assert_eq!(keys, vec![1, 1, 2, 3, 3]);
        // Stability: equal keys keep input order.
        assert_eq!(vals, vec![10.0, 11.0, 20.0, 30.0, 31.0]);
    }

    #[test]
    fn sort_large_parallel_path() {
        let n = PAR_THRESHOLD + 17;
        let mut keys: Vec<u64> = (0..n as u64).rev().collect();
        let mut vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        stable_sort_by_key(&mut keys, &mut vals);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(vals[0], (n - 1) as f64);
    }

    #[test]
    fn reduce_by_key_sums_runs() {
        let keys = vec![1u64, 1, 2, 5, 5, 5];
        let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (k, v) = reduce_by_key(&keys, &vals);
        assert_eq!(k, vec![1, 2, 5]);
        assert_eq!(v, vec![3.0, 3.0, 15.0]);
    }

    #[test]
    fn reduce_by_key_empty() {
        let (k, v) = reduce_by_key::<u64>(&[], &[]);
        assert!(k.is_empty() && v.is_empty());
    }

    #[test]
    fn reduce_by_key_no_duplicates_is_identity() {
        let keys = vec![1u64, 2, 3];
        let vals = vec![1.0, 2.0, 3.0];
        let (k, v) = reduce_by_key(&keys, &vals);
        assert_eq!(k, keys);
        assert_eq!(v, vals);
    }

    #[test]
    fn exclusive_scan_is_indptr() {
        assert_eq!(exclusive_scan(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(exclusive_scan(&[]), vec![0]);
    }

    #[test]
    fn gather_follows_the_map() {
        let src = vec![10.0, 20.0, 30.0];
        assert_eq!(gather(&src, &[2, 0, 0]), vec![30.0, 10.0, 10.0]);
    }

    #[test]
    fn reduce_by_key_parallel_path_matches_serial_bitwise() {
        // Long runs of equal keys crossing the REDUCE_CHUNK boundaries, with
        // values chosen so that reassociation would change the rounding.
        let n = PAR_THRESHOLD + 3 * REDUCE_CHUNK + 41;
        let keys: Vec<u64> = (0..n).map(|i| (i / 1777) as u64).collect();
        let vals: Vec<f64> = (0..n)
            .map(|i| ((i % 613) as f64 - 300.0) * 1.0e-3 + 1.0e-12 * i as f64)
            .collect();
        let (pk, pv) = reduce_by_key(&keys, &vals);
        let (sk, sv) = reduce_by_key_serial(&keys, &vals);
        assert_eq!(pk, sk);
        assert_eq!(pv.len(), sv.len());
        for (a, b) in pv.iter().zip(&sv) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reduce_by_key_parallel_single_giant_run() {
        // One run spanning every chunk boundary: the snap-forward must
        // collapse all interior boundaries.
        let n = PAR_THRESHOLD + 2 * REDUCE_CHUNK;
        let keys = vec![7u64; n];
        let vals: Vec<f64> = (0..n).map(|i| 1.0 + 1.0e-14 * i as f64).collect();
        let (pk, pv) = reduce_by_key(&keys, &vals);
        let (sk, sv) = reduce_by_key_serial(&keys, &vals);
        assert_eq!(pk, sk);
        assert_eq!(pv[0].to_bits(), sv[0].to_bits());
    }

    #[test]
    fn segmented_gather_sum_matches_ordered_serial() {
        // 3 segments with interleaved source contributions.
        let indptr = vec![0usize, 3, 3, 5];
        let perm = vec![4u32, 0, 2, 1, 3];
        let src = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let mut out = vec![1.0, 2.0, 3.0];
        segmented_gather_sum(&indptr, &perm, &src, &mut out);
        assert_eq!(out[0], 1.0 + (0.5 + 0.1 + 0.3));
        assert_eq!(out[1], 2.0); // empty segment untouched
        assert_eq!(out[2], 3.0 + (0.2 + 0.4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut keys = vec![1u64];
        let mut vals: Vec<f64> = vec![];
        stable_sort_by_key(&mut keys, &mut vals);
    }
}
