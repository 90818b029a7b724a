//! Arrival ordering of a slot's synthesised requests.
//!
//! Synthesis emits a slot's requests stream by stream. The canonical slot
//! order is by arrival, ties kept in synthesis order — exactly what a
//! stable `sort_by_key(|r| r.arrival)` gives. [`ArrivalOrder`] computes
//! that permutation with one *unstable* sort of packed `u64` keys
//! `(arrival − earliest) << idx_bits | idx`: the index in the low bits
//! makes every key unique, and ordering unique `(arrival, index)` pairs is
//! the stable order, so the unstable sort has no ties left to reorder.
//! When the arrival span and the index together need more than 64 bits
//! (never for a slot of synthesised requests: an hour is 32 bits of
//! microseconds), it falls back to a stable sort of the indices.
//!
//! Callers gather through the permutation straight into whatever form
//! they need — a sorted `Vec<IoRequest>` or the columns of a
//! [`RequestBatch`] — without an intermediate sorted copy.

use crate::columns::RequestBatch;
use gm_storage::IoRequest;

/// The arrival-order permutation of a request slice.
pub(crate) struct ArrivalOrder {
    /// Sorted keys; `key & mask` is an index into the ordered slice.
    keys: Vec<u64>,
    mask: u64,
}

impl ArrivalOrder {
    /// The order a stable sort of `requests` by arrival produces.
    pub(crate) fn of(requests: &[IoRequest]) -> Self {
        let n = requests.len();
        let (lo, hi) = requests
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.arrival.0), hi.max(r.arrival.0)));
        let idx_bits = bits(n.saturating_sub(1) as u64);
        let span_bits = bits(hi.saturating_sub(lo));
        if idx_bits + span_bits > 64 || idx_bits == 64 {
            let mut keys: Vec<u64> = (0..n as u64).collect();
            keys.sort_by_key(|&i| requests[i as usize].arrival);
            return ArrivalOrder { keys, mask: u64::MAX };
        }
        let mut keys: Vec<u64> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.arrival.0 - lo) << idx_bits) | i as u64)
            .collect();
        keys.sort_unstable();
        ArrivalOrder { keys, mask: (1u64 << idx_bits) - 1 }
    }

    /// Indices into the ordered slice, earliest arrival first.
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.iter().map(move |&k| (k & self.mask) as usize)
    }
}

/// Significant bits of `x` (0 for 0).
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Append `requests` to `out` in arrival order (ties in slice order).
pub(crate) fn extend_in_arrival_order(requests: &[IoRequest], out: &mut Vec<IoRequest>) {
    out.reserve(requests.len());
    out.extend(ArrivalOrder::of(requests).indices().map(|i| requests[i]));
}

/// `requests` in arrival order (ties in slice order), as columns.
pub(crate) fn batch_in_arrival_order(requests: &[IoRequest]) -> RequestBatch {
    let mut batch = RequestBatch::with_capacity(requests.len());
    for i in ArrivalOrder::of(requests).indices() {
        batch.push(&requests[i]);
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_sim::time::SimTime;
    use gm_storage::ObjectId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Requests with the given arrivals; the object id records each
    /// request's position, so any reordering of ties is visible.
    fn requests(arrivals: &[u64]) -> Vec<IoRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| IoRequest::read(SimTime(a), ObjectId(i as u64), 4096))
            .collect()
    }

    /// The stable sort the ordering helper replaces.
    fn stable_sorted(reqs: &[IoRequest]) -> Vec<IoRequest> {
        let mut sorted = reqs.to_vec();
        sorted.sort_by_key(|r| r.arrival);
        sorted
    }

    fn check(arrivals: &[u64]) {
        let reqs = requests(arrivals);
        let want = stable_sorted(&reqs);
        let mut got = Vec::new();
        extend_in_arrival_order(&reqs, &mut got);
        assert_eq!(got, want, "arrivals {arrivals:?}");
        assert_eq!(batch_in_arrival_order(&reqs), RequestBatch::from_requests(&want));
    }

    #[test]
    fn empty_and_single() {
        check(&[]);
        check(&[0]);
        check(&[u64::MAX]);
    }

    #[test]
    fn sixty_three_requests_across_an_hour_slot() {
        // Slot 5 of an hourly clock, arrivals on both edges of the slot
        // (the first and last microsecond) and in between.
        let hour = 3_600_000_000u64;
        let (a, b) = (5 * hour, 6 * hour - 1);
        let mut r = SmallRng::seed_from_u64(63);
        let mut arrivals: Vec<u64> = (0..61).map(|_| r.gen_range(a..b + 1)).collect();
        arrivals.insert(17, b);
        arrivals.insert(40, a);
        assert_eq!(arrivals.len(), 63);
        check(&arrivals);
    }

    #[test]
    fn equal_arrivals_keep_stream_order() {
        // Eight "streams" of requests that all share a handful of
        // instants: every tie must come out in synthesis order.
        let arrivals: Vec<u64> =
            (0..8).flat_map(|s| (0..40).map(move |k| 1000 + (k * 7 + s) % 5)).collect();
        check(&arrivals);
        check(&[9; 100]);
    }

    #[test]
    fn random_spans_match_the_stable_sort() {
        let mut r = SmallRng::seed_from_u64(7);
        for n in [2usize, 3, 64, 65, 1000, 5000] {
            for span in [1u64, 10, 3_600_000_000, 1 << 40] {
                let arrivals: Vec<u64> = (0..n).map(|_| 1_000 + r.gen_range(0..span)).collect();
                check(&arrivals);
            }
        }
    }

    #[test]
    fn span_past_64_bits_falls_back_to_the_stable_sort() {
        // 63 requests need 6 index bits; a span of 2^60 µs needs 61 more.
        let mut r = SmallRng::seed_from_u64(64);
        let mut arrivals: Vec<u64> = (0..60).map(|_| r.gen_range(0..4)).collect();
        arrivals.extend([1 << 60, 3, 1 << 60]);
        let reqs = requests(&arrivals);
        let order = ArrivalOrder::of(&reqs);
        assert_eq!(order.mask, u64::MAX, "must take the fallback");
        check(&arrivals);
        check(&[u64::MAX, 0, u64::MAX, 0]);
    }
}
