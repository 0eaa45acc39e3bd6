//! LSD radix sort for the Dumper's snapshot hash column.
//!
//! Identity hashes are uniformly spread 32-bit keys, the best case for a
//! least-significant-digit radix sort: three counting passes over 11-bit
//! digits replace `sort_unstable`'s comparisons, and one up-front pass
//! builds all three histograms. The ping-pong buffer is the caller's, so a
//! capture that retains it allocates nothing.

const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;
/// 11 + 11 + 10 bits cover a `u32`.
const PASSES: usize = 3;

#[inline]
fn digit(key: u32, pass: usize) -> usize {
    ((key >> (pass as u32 * DIGIT_BITS)) as usize) & (BUCKETS - 1)
}

/// Sorts `keys` ascending. `tmp` is scratch: it is resized to `keys.len()`
/// and its contents are unspecified afterwards (the two vectors may trade
/// buffers).
pub(crate) fn sort_u32(keys: &mut Vec<u32>, tmp: &mut Vec<u32>) {
    let n = keys.len();
    assert!(
        u32::try_from(n).is_ok(),
        "radix histogram counts are u32; {n} keys overflow them"
    );
    let mut counts = [[0u32; BUCKETS]; PASSES];
    for &k in keys.iter() {
        for (pass, hist) in counts.iter_mut().enumerate() {
            hist[digit(k, pass)] += 1;
        }
    }
    // Every slot of `tmp` is written before it is read; only its length
    // matters, so only growth is zeroed.
    tmp.reserve_exact(n.saturating_sub(tmp.len()));
    tmp.resize(n, 0);
    let mut sorted_in_tmp = false;
    for (pass, hist) in counts.iter_mut().enumerate() {
        // Every key shares this digit (always so for n <= 1): the pass
        // would copy in place order.
        if hist.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for c in hist.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        let (src, dst) = if sorted_in_tmp {
            (&tmp[..], &mut keys[..])
        } else {
            (&keys[..], &mut tmp[..])
        };
        for &k in src {
            let d = digit(k, pass);
            dst[hist[d] as usize] = k;
            hist[d] += 1;
        }
        sorted_in_tmp = !sorted_in_tmp;
    }
    if sorted_in_tmp {
        std::mem::swap(keys, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(keys: &[u32]) -> Vec<u32> {
        let mut want = keys.to_vec();
        want.sort_unstable();
        want.dedup();
        want
    }

    fn radix_dedup(keys: &[u32], tmp: &mut Vec<u32>) -> Vec<u32> {
        let mut got = keys.to_vec();
        sort_u32(&mut got, tmp);
        got.dedup();
        got
    }

    /// splitmix64, truncated: a seeded stream with no dev-dependency.
    fn stream(seed: u64, n: usize) -> Vec<u32> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (x ^ (x >> 31)) as u32
            })
            .collect()
    }

    #[test]
    fn agrees_with_sort_unstable_and_dedup() {
        let mut tmp = Vec::new();
        for n in [0, 1, 2, 3, 100, 255, 256, 257, 1000, 4096, 70_000] {
            let cases: [(&str, Vec<u32>); 5] = [
                ("random", stream(n as u64, n)),
                ("all-equal", vec![0xdead_beef; n]),
                // Few distinct values spread over every digit.
                (
                    "duplicate-heavy",
                    stream(7, n).iter().map(|k| k & 0x8010_0401).collect(),
                ),
                // Keys differing only in the top digit: two passes are skipped.
                (
                    "top-digit-only",
                    stream(9, n).iter().map(|k| k & 0xffc0_0000).collect(),
                ),
                ("descending", (0..n as u32).rev().collect()),
            ];
            for (shape, keys) in cases {
                assert_eq!(
                    radix_dedup(&keys, &mut tmp),
                    reference(&keys),
                    "{shape}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn sorts_extreme_keys() {
        let mut keys = stream(3, 500);
        keys.extend([u32::MAX, 0, u32::MAX, 0, 1 << 31]);
        // Scratch left longer than the input by an earlier, larger sort.
        let mut tmp = vec![42; 10_000];
        let want = {
            let mut w = keys.clone();
            w.sort_unstable();
            w
        };
        sort_u32(&mut keys, &mut tmp);
        assert_eq!(keys, want);
        assert_eq!(keys.len(), 505);
    }
}
