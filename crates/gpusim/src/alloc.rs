//! First-fit block allocator for device memory.
//!
//! The paper notes (§4.5) that "because of possible memory fragmentation on
//! GPU, the runtime may need to use the return code of the GPU memory
//! allocation function" — i.e. capacity accounting alone is not sufficient.
//! This allocator reproduces that behaviour: freeing out of order leaves
//! holes, and a request can fail for lack of a contiguous block even when the
//! total free capacity would suffice.

use crate::error::GpuError;
use crate::Result;

/// Allocation alignment, matching CUDA's 256-byte texture alignment.
pub const ALIGN: u64 = 256;

fn align_up(v: u64) -> u64 {
    (v + ALIGN - 1) & !(ALIGN - 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeBlock {
    base: u64,
    len: u64,
}

/// A first-fit allocator over the address range `[0, capacity)`. It keeps
/// only the free list: the owner of an allocation (the device's allocation
/// record) knows its length and hands it back at [`BlockAllocator::free`].
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    capacity: u64,
    /// Free blocks sorted by base address; adjacent blocks are coalesced.
    free: Vec<FreeBlock>,
}

impl BlockAllocator {
    /// Creates an allocator managing `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BlockAllocator { capacity, free: vec![FreeBlock { base: 0, len: capacity }] }
    }

    /// Total managed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total free bytes (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|b| b.len).sum()
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.free_bytes()
    }

    /// Size of the largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.free.iter().map(|b| b.len).max().unwrap_or(0)
    }

    /// Allocates `len` bytes (rounded up to [`ALIGN`]); returns the base
    /// address. Fails with [`GpuError::OutOfMemory`] when no contiguous block
    /// fits, and [`GpuError::InvalidValue`] for zero-length requests.
    pub fn alloc(&mut self, len: u64) -> Result<u64> {
        if len == 0 {
            return Err(GpuError::InvalidValue);
        }
        let len = align_up(len);
        let idx = self.free.iter().position(|b| b.len >= len).ok_or(GpuError::OutOfMemory)?;
        let block = self.free[idx];
        let base = block.base;
        if block.len == len {
            self.free.remove(idx);
        } else {
            self.free[idx] = FreeBlock { base: block.base + len, len: block.len - len };
        }
        Ok(base)
    }

    /// Releases the allocation of `len` bytes (as asked of
    /// [`BlockAllocator::alloc`]) starting at `base`. A range that is not
    /// wholly allocated — a double free, an address never handed out — is
    /// refused with [`GpuError::InvalidAddress`] and changes nothing.
    pub fn free(&mut self, base: u64, len: u64) -> Result<()> {
        let end = base.saturating_add(align_up(len.min(self.capacity)));
        let pos = self.free.partition_point(|b| b.base < base);
        let after_prev = pos == 0 || self.free[pos - 1].base + self.free[pos - 1].len <= base;
        let before_next = self.free.get(pos).is_none_or(|next| end <= next.base);
        if len == 0 || end > self.capacity || !after_prev || !before_next {
            return Err(GpuError::InvalidAddress);
        }
        self.free.insert(pos, FreeBlock { base, len: end - base });
        // Coalesce with successor, then predecessor.
        if pos + 1 < self.free.len()
            && self.free[pos].base + self.free[pos].len == self.free[pos + 1].base
        {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].base + self.free[pos - 1].len == self.free[pos].base {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = BlockAllocator::new(1 << 20);
        let p = a.alloc(1000).unwrap();
        assert_eq!(p % ALIGN, 0);
        assert_eq!(a.used_bytes(), align_up(1000));
        a.free(p, 1000).unwrap();
        assert_eq!(a.used_bytes(), 0);
        assert_eq!(a.free_bytes(), 1 << 20);
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = BlockAllocator::new(1 << 20);
        assert_eq!(a.alloc(0), Err(GpuError::InvalidValue));
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut a = BlockAllocator::new(1024);
        let _p = a.alloc(1024).unwrap();
        assert_eq!(a.alloc(1), Err(GpuError::OutOfMemory));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = BlockAllocator::new(1 << 20);
        let p = a.alloc(512).unwrap();
        let _q = a.alloc(512).unwrap();
        a.free(p, 512).unwrap();
        assert_eq!(a.free(p, 512), Err(GpuError::InvalidAddress));
        // Nor may a free reach into a neighbouring hole.
        assert_eq!(a.free(p + 512, 1024), Err(GpuError::InvalidAddress));
        assert_eq!(a.used_bytes(), 512);
    }

    #[test]
    fn free_of_unknown_address_rejected() {
        let mut a = BlockAllocator::new(1 << 20);
        assert_eq!(a.free(12345, 256), Err(GpuError::InvalidAddress));
        assert_eq!(a.free(1 << 20, 256), Err(GpuError::InvalidAddress));
    }

    #[test]
    fn fragmentation_blocks_large_alloc() {
        // Three 1KiB blocks fill memory; freeing the middle one leaves a hole
        // that cannot satisfy a 2KiB request even though 1KiB+slack is free.
        let mut a = BlockAllocator::new(3 * 1024);
        let p0 = a.alloc(1024).unwrap();
        let p1 = a.alloc(1024).unwrap();
        let p2 = a.alloc(1024).unwrap();
        a.free(p1, 1024).unwrap();
        assert_eq!(a.free_bytes(), 1024);
        assert_eq!(a.alloc(2048), Err(GpuError::OutOfMemory));
        // Freeing a neighbour coalesces and the allocation succeeds.
        a.free(p0, 1024).unwrap();
        assert_eq!(a.largest_free_block(), 2048);
        assert!(a.alloc(2048).is_ok());
        a.free(p2, 1024).unwrap();
    }

    #[test]
    fn coalescing_restores_single_block() {
        let mut a = BlockAllocator::new(4096);
        let ptrs: Vec<u64> = (0..4).map(|_| a.alloc(1024).unwrap()).collect();
        // Free in a scrambled order; the free list must still coalesce fully.
        for &p in &[ptrs[2], ptrs[0], ptrs[3], ptrs[1]] {
            a.free(p, 1024).unwrap();
        }
        assert_eq!(a.largest_free_block(), 4096);
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut a = BlockAllocator::new(8192);
        let p0 = a.alloc(1024).unwrap();
        let _p1 = a.alloc(1024).unwrap();
        a.free(p0, 1024).unwrap();
        let p2 = a.alloc(512).unwrap();
        assert_eq!(p2, p0, "first-fit must reuse the first hole");
    }

    #[test]
    fn allocations_never_overlap() {
        let mut a = BlockAllocator::new(1 << 16);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for i in 0..32 {
            if let Ok(p) = a.alloc(((i % 7) + 1) * 300) {
                let len = align_up(((i % 7) + 1) * 300);
                for &(b, l) in &live {
                    assert!(p + len <= b || b + l <= p, "overlap at {p:#x}");
                }
                live.push((p, len));
            }
        }
    }
}
