//! Brute-force specification oracles: independent, obviously-correct
//! (but slow) definitions of each benchmark's answer, used to validate
//! both the mini-language sources and the native single-pass
//! implementations on small inputs.
//!
//! Everything here enumerates candidate regions explicitly (`O(n²)` to
//! `O(n⁴)`), the opposite of the clever single-pass loops the paper
//! parallelizes — which is exactly what makes them trustworthy specs.

/// Maximum over all bottom-anchored strips (suffix row ranges) of the
/// strip sum; at least 0 (the empty strip).
pub fn max_bottom_strip(rows: &[Vec<i64>]) -> i64 {
    let sums: Vec<i64> = rows.iter().map(|r| r.iter().sum()).collect();
    let mut best = 0;
    for k in 0..sums.len() {
        best = best.max(sums[k..].iter().sum::<i64>());
    }
    best
}

/// Maximum over all top-anchored strips (prefix row ranges), at least 0.
pub fn max_top_strip(rows: &[Vec<i64>]) -> i64 {
    let sums: Vec<i64> = rows.iter().map(|r| r.iter().sum()).collect();
    let mut best = 0;
    for k in 0..=sums.len() {
        best = best.max(sums[..k].iter().sum::<i64>());
    }
    best
}

/// Maximum over all contiguous row ranges, at least 0 (Kadane's spec).
pub fn max_segment_strip(rows: &[Vec<i64>]) -> i64 {
    let sums: Vec<i64> = rows.iter().map(|r| r.iter().sum()).collect();
    let mut best = 0;
    for lo in 0..sums.len() {
        for hi in lo..=sums.len().saturating_sub(1) {
            best = best.max(sums[lo..=hi].iter().sum::<i64>());
        }
    }
    best
}

/// Maximum over all rectangles anchored at the top-left corner
/// `(0,0)..(k,ℓ)`, at least 0 (§2.2's mtls).
pub fn max_top_left_rect(rows: &[Vec<i64>]) -> i64 {
    let mut best = 0;
    for k in 0..rows.len() {
        for l in 0..rows[k].len() {
            let s: i64 = rows[..=k].iter().map(|r| r[..=l].iter().sum::<i64>()).sum();
            best = best.max(s);
        }
    }
    best
}

/// Maximum over rectangles touching the bottom edge and the left edge:
/// rows `k..n`, columns `0..=ℓ`, for any `k`, `ℓ` (non-empty).
pub fn max_bottom_left_rect(rows: &[Vec<i64>]) -> i64 {
    let n = rows.len();
    let mut best = i64::MIN;
    for k in 0..n {
        for l in 0..rows[0].len() {
            let s: i64 = rows[k..n].iter().map(|r| r[..=l].iter().sum::<i64>()).sum();
            best = best.max(s);
        }
    }
    best
}

/// Maximum over rectangles anchored at the top-right corner region:
/// rows `0..=k`, columns `ℓ..m`, accumulated over all row prefixes.
pub fn max_top_right_rect(rows: &[Vec<i64>]) -> i64 {
    let mut best = 0;
    for k in 0..rows.len() {
        for l in 0..rows[k].len() {
            let s: i64 = rows[..=k].iter().map(|r| r[l..].iter().sum::<i64>()).sum();
            best = best.max(s);
        }
    }
    best
}

/// Maximum over bottom-anchored boxes of the box sum (Figure 1's mbbs),
/// at least 0.
pub fn max_bottom_box(planes: &[Vec<Vec<i64>>]) -> i64 {
    let sums: Vec<i64> = planes.iter().map(|p| p.iter().flatten().sum()).collect();
    let mut best = 0;
    for k in 0..sums.len() {
        best = best.max(sums[k..].iter().sum::<i64>());
    }
    best
}

/// The number of *level* lines of a bracket text (§2.1's bp): lines `l`
/// with `x = x₁·l·x₂` where `l` and `x₁` are both balanced.
pub fn level_lines(lines: &[Vec<i64>]) -> i64 {
    let mut count = 0;
    let mut offset = 0i64;
    let mut balanced_so_far = true;
    for line in lines {
        let mut line_balanced = true;
        let mut lo = 0i64;
        for &c in line {
            lo += if c == 1 { 1 } else { -1 };
            if offset + lo < 0 {
                // A dip below zero means the prefix is not balanced.
                line_balanced = false;
            }
        }
        if !line_balanced {
            balanced_so_far = false;
        }
        offset += lo;
        if balanced_so_far && lo == 0 && offset == 0 {
            count += 1;
        }
    }
    count
}

/// Matched bracket pairs of a single bracket stream.
pub fn matched_pairs(stream: &[i64]) -> i64 {
    let mut open = 0i64;
    let mut matched = 0i64;
    for &c in stream {
        if c == 1 {
            open += 1;
        } else if open > 0 {
            open -= 1;
            matched += 1;
        }
    }
    matched
}

/// Count of the most frequent value.
pub fn mode_count(values: &[i64]) -> i64 {
    let mut best = 0;
    for &v in values {
        let c = values.iter().filter(|&&x| x == v).count() as i64;
        best = best.max(c);
    }
    best
}

/// Longest run of aligned equal pairs (the modified-LCS benchmark).
pub fn longest_aligned_run(pairs: &[[i64; 2]]) -> i64 {
    let mut best = 0i64;
    let mut cur = 0i64;
    for p in pairs {
        cur = if p[0] == p[1] { cur + 1 } else { 0 };
        best = best.max(cur);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gen_2d, gen_3d, gen_brackets};

    /// The native single-pass implementations must agree with the
    /// quadratic specs on random small inputs.
    #[test]
    fn native_strip_implementations_match_specs() {
        for seed in 0..10 {
            let rows = gen_2d(200, seed, 5, -9, 9);
            // Re-derive single-pass answers from row sums.
            let sums: Vec<i64> = rows.iter().map(|r| r.iter().sum()).collect();
            let mut mbs = 0i64;
            let mut cur = 0i64;
            let mut best = 0i64;
            let mut pre = 0i64;
            let mut total = 0i64;
            for &s in &sums {
                mbs = (mbs + s).max(0);
                cur = (cur + s).max(0);
                best = best.max(cur);
                total += s;
                pre = pre.max(total);
            }
            assert_eq!(mbs, max_bottom_strip(&rows), "seed {seed}");
            assert_eq!(best, max_segment_strip(&rows), "seed {seed}");
            assert_eq!(pre, max_top_strip(&rows), "seed {seed}");
        }
    }

    #[test]
    fn mtls_single_pass_matches_quadratic_spec() {
        for seed in 0..10 {
            let rows = gen_2d(60, seed, 4, -9, 9);
            let mut rec = [0i64; 4];
            let mut mtl = 0i64;
            for row in &rows {
                let mut rpre = 0;
                for (j, &v) in row.iter().enumerate() {
                    rpre += v;
                    rec[j] += rpre;
                    mtl = mtl.max(rec[j]);
                }
            }
            assert_eq!(mtl, max_top_left_rect(&rows), "seed {seed}");
        }
    }

    #[test]
    fn rect_variants_match_their_specs() {
        for seed in 0..10 {
            let rows = gen_2d(60, seed, 4, -9, 9);
            // bottom-left: single pass recb[j] = max(recb, 0) + rpre,
            // answer = max_j of final recb.
            let mut recb = [0i64; 4];
            for row in &rows {
                let mut rpre = 0;
                for (j, &v) in row.iter().enumerate() {
                    rpre += v;
                    recb[j] = recb[j].max(0) + rpre;
                }
            }
            assert_eq!(
                recb.iter().copied().max().unwrap(),
                max_bottom_left_rect(&rows),
                "seed {seed}"
            );
            // top-right: running max over suffix-sum accumulations.
            let mut psuf = [0i64; 4];
            let mut mtr = 0i64;
            for row in &rows {
                let mut rsuf = 0;
                for j in (0..4).rev() {
                    rsuf += row[j];
                    psuf[j] += rsuf;
                    mtr = mtr.max(psuf[j]);
                }
            }
            assert_eq!(mtr, max_top_right_rect(&rows), "seed {seed}");
        }
    }

    #[test]
    fn mbbs_matches_spec() {
        for seed in 0..10 {
            let planes = gen_3d(240, seed, 3, 4, -9, 9);
            let mut mbbs = 0i64;
            for p in &planes {
                let s: i64 = p.iter().flatten().sum();
                mbbs = (mbbs + s).max(0);
            }
            assert_eq!(mbbs, max_bottom_box(&planes), "seed {seed}");
        }
    }

    #[test]
    fn bp_fold_matches_level_line_spec() {
        for seed in 0..10 {
            let stream = gen_brackets(120, seed);
            let lines: Vec<Vec<i64>> = stream.chunks(6).map(<[i64]>::to_vec).collect();
            // Single pass with the min-offset lift.
            let (mut offset, mut bal, mut cnt) = (0i64, true, 0i64);
            for line in &lines {
                let (mut lo, mut mo) = (0i64, 0i64);
                for &c in line {
                    lo += if c == 1 { 1 } else { -1 };
                    mo = mo.min(lo);
                }
                bal = bal && offset + mo >= 0;
                offset += lo;
                if bal && lo == 0 && offset == 0 {
                    cnt += 1;
                }
            }
            assert_eq!(cnt, level_lines(&lines), "seed {seed}");
        }
    }

    #[test]
    fn small_oracle_sanity() {
        assert_eq!(matched_pairs(&[1, 1, -1, -1, -1]), 2);
        assert_eq!(mode_count(&[3, 1, 3, 2, 3]), 3);
        assert_eq!(longest_aligned_run(&[[1, 1], [2, 2], [3, 0], [4, 4]]), 2);
    }
}
