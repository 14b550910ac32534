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

#[cfg(test)]
mod tests {
    use super::*;

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
}
