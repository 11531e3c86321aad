//! Recycled record batches for the collector→ingest queue.
//!
//! The queue moves *batches* of records, not single records, so one
//! lock round-trip amortizes over a whole chunk's worth of flows. This
//! module adds the second half of that amortization: the `Vec` backing
//! each batch is returned to a [`BatchPool`] after the worker folds it,
//! so steady-state ingest recycles a fixed set of buffers instead of
//! allocating and freeing one per batch.
//!
//! The pool is deliberately bounded: it never holds more buffers than
//! can be in flight at once (the lane's queue quota plus one in a
//! worker's hands plus the lane's scratch), so a traffic burst cannot
//! ratchet memory up permanently.

use mt_flow::FlowRecord;
use std::sync::Mutex;

/// A bounded free-list of record buffers shared between one producer
/// lane (which takes buffers to build batches) and the ingest workers
/// (which return them once folded).
#[derive(Debug)]
pub struct BatchPool {
    free: Mutex<Vec<Vec<FlowRecord>>>,
    max_pooled: usize,
}

impl BatchPool {
    /// Creates a pool retaining at most `max_pooled` idle buffers;
    /// buffers returned beyond that are simply dropped.
    pub fn new(max_pooled: usize) -> Self {
        BatchPool {
            free: Mutex::new(Vec::new()),
            max_pooled,
        }
    }

    /// Hands out an empty buffer, reusing a pooled one when available.
    pub fn take(&self) -> Vec<FlowRecord> {
        crate::sync::lock(&self.free).pop().unwrap_or_default() // lock: stream.pool
    }

    /// Returns a buffer to the pool. The contents are cleared; the
    /// allocation is kept unless the pool is already full.
    pub fn put(&self, mut buf: Vec<FlowRecord>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        let mut free = crate::sync::lock(&self.free); // lock: stream.pool
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        crate::sync::lock(&self.free).len() // lock: stream.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::{Ipv4, SimTime};

    fn record() -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src: Ipv4::new(9, 0, 0, 1),
            dst: Ipv4::new(20, 0, 0, 1),
            src_port: 40_000,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 2,
            packets: 1,
            octets: 40,
        }
    }

    #[test]
    fn put_then_take_recycles_the_allocation() {
        let pool = BatchPool::new(4);
        let mut buf = pool.take();
        assert_eq!(buf.capacity(), 0, "cold pool hands out fresh buffers");
        for _ in 0..100 {
            buf.push(record());
        }
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.pooled(), 1);
        let reused = pool.take();
        assert!(reused.is_empty(), "recycled buffers come back cleared");
        assert_eq!(reused.capacity(), cap, "the allocation is preserved");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BatchPool::new(2);
        for _ in 0..5 {
            let mut buf = Vec::with_capacity(8);
            buf.push(record());
            pool.put(buf);
        }
        assert_eq!(pool.pooled(), 2, "returns beyond the cap are dropped");
        // Zero-capacity buffers are not worth pooling.
        pool.take();
        pool.put(Vec::new());
        assert_eq!(pool.pooled(), 1);
    }
}
