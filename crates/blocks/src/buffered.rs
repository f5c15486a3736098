//! Buffered queues: amortize queue overhead by a blocking factor.
//!
//! "Buffered queues use kernel code synthesis to generate several
//! specialized queue insert operations (a couple of instructions); each
//! moves a chunk of data into a different area of the same queue element.
//! This way, the overhead of a queue insert is amortized by the blocking
//! factor. For example, the A/D device server handles 44,100 (single
//! word) interrupts per second by packing eight 32-bit words per queue
//! element" (Section 5.4).
//!
//! The Rust analogue of the "several specialized insert operations" is the
//! monomorphized, inlineable `put` on a `[T; N]` chunk: the common case
//! writes one array slot and bumps an index — a couple of instructions —
//! and only every `N`-th call touches the underlying queue.

use crate::spsc;
use crate::Full;

/// The producer side: packs items into chunks of `N`.
pub struct BufferedProducer<T, const N: usize> {
    inner: spsc::Producer<[T; N]>,
    /// The chunk being filled.
    fill: [Option<T>; N],
    fill_len: usize,
    /// Queue-element inserts actually performed (vs items accepted).
    pub chunk_puts: u64,
    /// Items accepted.
    pub items: u64,
}

/// The consumer side: unpacks chunks.
pub struct BufferedConsumer<T, const N: usize> {
    inner: spsc::Consumer<[T; N]>,
    drain: Vec<T>,
}

/// Create a buffered SP-SC queue of `chunks` queue elements, each packing
/// `N` items (the blocking factor).
#[must_use]
pub fn channel<T: Send, const N: usize>(
    chunks: usize,
) -> (BufferedProducer<T, N>, BufferedConsumer<T, N>) {
    assert!(N >= 1);
    let (p, c) = spsc::channel(chunks);
    (
        BufferedProducer {
            inner: p,
            fill: std::array::from_fn(|_| None),
            fill_len: 0,
            chunk_puts: 0,
            items: 0,
        },
        BufferedConsumer {
            inner: c,
            drain: Vec::new(),
        },
    )
}

impl<T: Send, const N: usize> BufferedProducer<T, N> {
    /// Insert one item. The fast path fills one slot of the current
    /// chunk; every `N`-th call pushes the chunk into the queue.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when the chunk is complete and the underlying
    /// queue has no room (the item is handed back; the partial chunk is
    /// retained).
    pub fn put(&mut self, data: T) -> Result<(), Full<T>> {
        if self.fill_len == N {
            // A complete chunk is still staged from a previous full-queue
            // attempt; it must go out before `data` can be accepted.
            if self.try_flush().is_err() {
                return Err(Full(data));
            }
        }
        self.fill[self.fill_len] = Some(data);
        self.fill_len += 1;
        self.items += 1;
        if self.fill_len == N {
            // Hand the chunk off eagerly; if the queue is full keep it
            // staged for the next put or [`flush`](Self::flush).
            let _ = self.try_flush();
        }
        Ok(())
    }

    /// Push a complete staged chunk — one whose eager hand-off found the
    /// queue full. A producer must call this after its last `put` until
    /// it succeeds, or the final chunk never reaches the consumer. A
    /// partial chunk stays staged: it cannot be padded for general `T`.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] when a complete chunk is staged and the queue
    /// still has no room.
    pub fn flush(&mut self) -> Result<(), Full<()>> {
        if self.fill_len == N {
            self.try_flush().map_err(|()| Full(()))?;
        }
        Ok(())
    }

    fn try_flush(&mut self) -> Result<(), ()> {
        debug_assert_eq!(self.fill_len, N);
        let chunk: [T; N] =
            std::array::from_fn(|i| self.fill[i].take().expect("chunk slot filled"));
        match self.inner.put(chunk) {
            Ok(()) => {
                self.fill_len = 0;
                self.chunk_puts += 1;
                Ok(())
            }
            Err(Full(chunk)) => {
                // Re-stage the chunk; fill_len stays N.
                for (i, item) in chunk.into_iter().enumerate() {
                    self.fill[i] = Some(item);
                }
                Err(())
            }
        }
    }

    /// Items accepted but not yet in the queue: a partial chunk, or `N`
    /// when a complete chunk waits for [`flush`](Self::flush).
    #[must_use]
    pub fn staged(&self) -> usize {
        self.fill_len
    }

    /// The amortization actually achieved: items per queue-element insert.
    #[must_use]
    pub fn amortization(&self) -> f64 {
        if self.chunk_puts == 0 {
            0.0
        } else {
            self.items as f64 / self.chunk_puts as f64
        }
    }
}

impl<T: Send, const N: usize> BufferedConsumer<T, N> {
    /// Take one item (unpacking a chunk when needed).
    pub fn get(&mut self) -> Option<T> {
        if self.drain.is_empty() {
            let chunk = self.inner.get()?;
            self.drain = chunk.into_iter().rev().collect();
        }
        self.drain.pop()
    }

    /// Take a whole chunk at once (the efficient bulk path).
    pub fn get_chunk(&mut self) -> Option<[T; N]> {
        if self.drain.is_empty() {
            self.inner.get()
        } else {
            None // partial drain in progress; finish with get()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_by_blocking_factor() {
        let (mut p, mut c) = channel::<u32, 8>(16);
        for i in 0..64 {
            p.put(i).unwrap();
        }
        assert_eq!(p.chunk_puts, 8, "64 items / factor 8");
        assert!((p.amortization() - 8.0).abs() < 1e-9);
        for i in 0..64 {
            assert_eq!(c.get(), Some(i));
        }
        assert_eq!(c.get(), None);
    }

    #[test]
    fn partial_chunk_not_visible_until_full() {
        let (mut p, mut c) = channel::<u32, 4>(4);
        p.put(1).unwrap();
        p.put(2).unwrap();
        p.put(3).unwrap();
        assert_eq!(c.get(), None, "3 staged items < blocking factor");
        assert_eq!(p.staged(), 3);
        p.put(4).unwrap();
        assert_eq!(c.get(), Some(1));
    }

    #[test]
    fn chunk_api_yields_whole_chunks() {
        let (mut p, mut c) = channel::<u32, 4>(4);
        for i in 0..8 {
            p.put(i).unwrap();
        }
        assert_eq!(c.get_chunk(), Some([0, 1, 2, 3]));
        assert_eq!(c.get(), Some(4));
        assert_eq!(c.get_chunk(), None, "partial drain in progress");
        assert_eq!(c.get(), Some(5));
        assert_eq!(c.get(), Some(6));
        assert_eq!(c.get(), Some(7));
    }

    #[test]
    fn full_queue_at_the_last_put_loses_nothing() {
        // Two queue elements of factor 4: the third chunk completes while
        // the queue is full, so its eager hand-off fails and it stays
        // staged. Nothing retries it unless the producer flushes.
        let (mut p, mut c) = channel::<u32, 4>(2);
        for i in 0..12 {
            p.put(i).unwrap();
        }
        assert_eq!(p.chunk_puts, 2, "the queue holds two chunks");
        assert_eq!(p.staged(), 4, "a complete chunk waits");
        assert!(p.flush().is_err(), "still no room");
        assert_eq!(c.get_chunk(), Some([0, 1, 2, 3]));
        p.flush().unwrap();
        assert_eq!(p.staged(), 0);
        assert_eq!(p.chunk_puts, 3);
        let rest: Vec<u32> = std::iter::from_fn(|| c.get()).collect();
        assert_eq!(rest, (4..12).collect::<Vec<_>>(), "every item arrives");
        p.flush().unwrap(); // nothing staged: a no-op
    }

    #[test]
    fn ad_server_rate_smoke() {
        // One simulated second of 44.1 kHz samples through a factor-8
        // buffered queue, drained concurrently.
        let (mut p, mut c) = channel::<u32, 8>(64);
        let t = std::thread::spawn(move || {
            let mut got = 0u32;
            while got < 44_100 {
                if c.get().is_some() {
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            got
        });
        for i in 0..44_104u32 {
            // 44_104 = next multiple of 8, so everything flushes.
            while p.put(i).is_err() {
                std::thread::yield_now();
            }
        }
        // The last chunk may have found the queue full: push it out.
        while p.flush().is_err() {
            std::thread::yield_now();
        }
        assert_eq!(p.staged(), 0);
        assert_eq!(t.join().unwrap(), 44_100);
        assert_eq!(p.chunk_puts, 44_104 / 8);
    }
}
