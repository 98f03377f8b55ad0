//! Thrust-style data-parallel primitives.
//!
//! Algorithm 1 and 2 of the paper are written in terms of
//! `stable_sort_by_key` and `reduce_by_key`; these are those primitives.
//! The paper notes that "other GPU architectures can be supported provided
//! implementations exist for the stable_sort_by_key and reduce_by_key
//! algorithms" — this module is exactly that implementation for the CPU.

/// Stable sort of `(key, value)` pairs by key.
///
/// Equivalent of `thrust::stable_sort_by_key`.
pub fn stable_sort_by_key<K, V>(keys: &mut [K], vals: &mut [V])
where
    K: Ord + Copy,
    V: Copy,
{
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    let mut pairs: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
    pairs.sort_by_key(|&(k, _)| k);
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        keys[i] = k;
        vals[i] = v;
    }
}

/// Reduce runs of equal adjacent keys, summing their values.
///
/// Equivalent of `thrust::reduce_by_key` with a `plus` reduction: the
/// input is expected to be key-sorted (as after [`stable_sort_by_key`]);
/// the output contains each distinct key once, with the sum of its values.
/// Every run of equal keys is summed left-to-right in input order.
pub fn reduce_by_key<K>(keys: &[K], vals: &[f64]) -> (Vec<K>, Vec<f64>)
where
    K: Eq + Copy,
{
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
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
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut keys = vec![1u64];
        let mut vals: Vec<f64> = vec![];
        stable_sort_by_key(&mut keys, &mut vals);
    }
}
