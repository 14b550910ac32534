//! Selection vectors — MonetDB-style candidate lists.
//!
//! A selection vector is a sorted list of row ids that survive a predicate.
//! Operators pass these instead of materializing filtered columns; a
//! filter's `predicates` trace leaf shows the rows each conjunct examined
//! as the list shrinks.

/// A sorted list of selected row ids.
pub type SelVec = Vec<u32>;

std::thread_local! {
    /// Per-thread free list of selection buffers. Morsel loops churn through
    /// one selection vector per conjunct per morsel; recycling the backing
    /// allocations keeps the steady state allocation-free (the same idiom as
    /// the ASCII LIKE fast path's scratch buffers).
    static SCRATCH: std::cell::RefCell<Vec<SelVec>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes an empty selection buffer from the thread-local pool, retaining
/// whatever capacity earlier uses grew; allocates only when the pool is dry.
pub fn take_scratch() -> SelVec {
    let mut v = SCRATCH.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    v.clear();
    v
}

/// Returns a buffer to the thread-local pool for reuse. The pool is bounded,
/// so handing back more buffers than any loop uses at once just drops them.
pub fn put_scratch(v: SelVec) {
    SCRATCH.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(v);
        }
    });
}

/// The identity selection over `n` rows.
pub fn identity(n: usize) -> SelVec {
    (0..n as u32).collect()
}

/// Intersects two sorted selection vectors.
pub fn intersect(a: &[u32], b: &[u32]) -> SelVec {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Unions two sorted selection vectors.
pub fn union(a: &[u32], b: &[u32]) -> SelVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Complements a sorted selection vector over a universe of `n` rows.
///
/// The contract is `sel.len() <= n` with all ids below `n`; a violating
/// caller is a bug (caught by the `debug_assert`), but release builds must
/// not panic on the capacity arithmetic — the subtraction saturates and the
/// output is simply the ids in `0..n` not present in `sel`.
pub fn complement(sel: &[u32], n: usize) -> SelVec {
    debug_assert!(sel.len() <= n, "selection of {} ids over a universe of {n}", sel.len());
    let mut out = Vec::with_capacity(n.saturating_sub(sel.len()));
    let mut next = 0u32;
    for &s in sel {
        while next < s {
            out.push(next);
            next += 1;
        }
        next = s + 1;
    }
    while (next as usize) < n {
        out.push(next);
        next += 1;
    }
    out
}

/// Converts a bool mask to a selection vector.
pub fn from_mask(mask: &[bool]) -> SelVec {
    mask.iter().enumerate().filter_map(|(i, &b)| b.then_some(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_covers_all_rows() {
        assert_eq!(identity(4), vec![0, 1, 2, 3]);
        assert!(identity(0).is_empty());
    }

    #[test]
    fn intersect_keeps_common() {
        assert_eq!(intersect(&[0, 2, 4, 6], &[1, 2, 3, 4]), vec![2, 4]);
        assert!(intersect(&[0, 1], &[2, 3]).is_empty());
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
    }

    #[test]
    fn union_merges_sorted() {
        assert_eq!(union(&[0, 2], &[1, 2, 5]), vec![0, 1, 2, 5]);
        assert_eq!(union(&[], &[3]), vec![3]);
    }

    #[test]
    fn complement_inverts() {
        assert_eq!(complement(&[1, 3], 5), vec![0, 2, 4]);
        assert_eq!(complement(&[], 3), vec![0, 1, 2]);
        assert!(complement(&[0, 1, 2], 3).is_empty());
    }

    #[test]
    fn from_mask_selects_true() {
        assert_eq!(from_mask(&[true, false, true]), vec![0, 2]);
    }

    #[test]
    fn scratch_pool_recycles_cleared_buffers() {
        let mut v = take_scratch();
        v.extend(0..100);
        let cap = v.capacity();
        put_scratch(v);
        let v2 = take_scratch();
        assert!(v2.is_empty(), "scratch buffers come back empty");
        assert!(v2.capacity() >= cap, "capacity is retained across reuse");
        put_scratch(v2);
    }

    #[test]
    fn complement_round_trips_with_union() {
        let sel = vec![0, 4, 7, 9];
        let co = complement(&sel, 10);
        assert_eq!(union(&sel, &co), identity(10));
        assert!(intersect(&sel, &co).is_empty());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn complement_saturates_on_contract_violation() {
        // Release builds must not panic on `n - sel.len()` underflow when a
        // buggy caller hands a selection longer than the universe; the
        // debug_assert catches the same call in debug builds.
        assert_eq!(complement(&[0, 1, 2, 3], 2), Vec::<u32>::new());
    }
}

#[cfg(test)]
mod proptests {
    //! Algebraic properties of the selection-vector operations, checked
    //! against a naive `BTreeSet` model: `intersect`/`union`/`complement`
    //! must agree with set semantics and always return sorted, deduplicated
    //! vectors — the invariants every candidate-propagating operator relies
    //! on when it chains these calls.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const N: u32 = 64;

    /// Sorted, deduplicated selection over the universe `0..N` from an
    /// arbitrary draw of ids.
    fn sel_from(raw: &[u32]) -> SelVec {
        let set: BTreeSet<u32> = raw.iter().map(|&v| v % N).collect();
        set.into_iter().collect()
    }

    fn as_set(sel: &[u32]) -> BTreeSet<u32> {
        sel.iter().copied().collect()
    }

    fn is_sorted_dedup(sel: &[u32]) -> bool {
        sel.windows(2).all(|w| w[0] < w[1])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_set_model(
            raw_a in prop::collection::vec(0u32..u32::MAX, 0..96),
            raw_b in prop::collection::vec(0u32..u32::MAX, 0..96),
        ) {
            let (a, b) = (sel_from(&raw_a), sel_from(&raw_b));
            let (sa, sb) = (as_set(&a), as_set(&b));

            let i = intersect(&a, &b);
            prop_assert!(is_sorted_dedup(&i));
            prop_assert_eq!(as_set(&i), &sa & &sb);

            let u = union(&a, &b);
            prop_assert!(is_sorted_dedup(&u));
            prop_assert_eq!(as_set(&u), &sa | &sb);

            let c = complement(&a, N as usize);
            prop_assert!(is_sorted_dedup(&c));
            let universe: BTreeSet<u32> = (0..N).collect();
            prop_assert_eq!(as_set(&c), &universe - &sa);
        }

        #[test]
        fn algebra_laws_hold(
            raw_a in prop::collection::vec(0u32..u32::MAX, 0..96),
            raw_b in prop::collection::vec(0u32..u32::MAX, 0..96),
        ) {
            let (a, b) = (sel_from(&raw_a), sel_from(&raw_b));
            // Commutativity and idempotence.
            prop_assert_eq!(intersect(&a, &b), intersect(&b, &a));
            prop_assert_eq!(union(&a, &b), union(&b, &a));
            prop_assert_eq!(intersect(&a, &a), a.clone());
            prop_assert_eq!(union(&a, &a), a.clone());
            // Involution and De Morgan over the bounded universe.
            let n = N as usize;
            prop_assert_eq!(complement(&complement(&a, n), n), a.clone());
            prop_assert_eq!(
                complement(&union(&a, &b), n),
                intersect(&complement(&a, n), &complement(&b, n))
            );
            // Complement partitions the universe.
            let co = complement(&a, n);
            prop_assert!(intersect(&a, &co).is_empty());
            prop_assert_eq!(union(&a, &co), identity(n));
        }
    }
}
