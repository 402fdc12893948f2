//! Page-table entries and the Figure 4 flag state machine.
//!
//! Each memory allocation an application makes produces one
//! [`PageTableEntry`] holding three locations for the data — the virtual
//! pointer returned to the application, the swap slab in host memory, and
//! (when resident) the device pointer — plus the
//! `isAllocated`/`toCopy2Dev`/`toCopy2Swap` flags whose transitions Figure 4
//! of the paper specifies. The pure transition function lives in [`Flags`]
//! so it can be property-tested in isolation; the memory manager performs
//! the corresponding device operations and keeps the real state in sync.

use crate::memory::eviction::TouchStamp;
use mtgpu_api::protocol::{AllocKind, VaCursor};
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{DeviceAddr, Gpu, GpuContextId, GpuError};
use serde::Serialize;
use std::collections::BTreeMap;

/// The `isAllocated` / `toCopy2Dev` / `toCopy2Swap` flag triple. The fields
/// are private: a value is one of Figure 4's five states by construction
/// ([`Flags::new`] checks, the transitions are closed over them), so the
/// legal machine is enforced from inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flags {
    allocated: bool,
    to_dev: bool,
    to_swap: bool,
}

impl Flags {
    /// State of a freshly created entry: no device allocation, no data.
    pub const INITIAL: Flags = Flags { allocated: false, to_dev: false, to_swap: false };

    /// The triple as a state, if it is one of Figure 4's five.
    pub fn new(allocated: bool, to_dev: bool, to_swap: bool) -> Option<Flags> {
        let f = Flags { allocated, to_dev, to_swap };
        Flags::REACHABLE.contains(&f).then_some(f)
    }

    /// A device allocation backs this entry.
    pub fn allocated(self) -> bool {
        self.allocated
    }

    /// The authoritative data lives only in the swap slab and must be
    /// uploaded before the next kernel touches it.
    pub fn to_dev(self) -> bool {
        self.to_dev
    }

    /// The authoritative data lives only on the device and must be copied
    /// down before it can be served to the host or the entry evicted.
    pub fn to_swap(self) -> bool {
        self.to_swap
    }

    /// Host-to-device copy: the slab now holds the authoritative data,
    /// superseding any device copy.
    #[must_use]
    pub fn on_copy_hd(self) -> Flags {
        Flags { allocated: self.allocated, to_dev: true, to_swap: false }
    }

    /// Kernel launch touching this entry: data was uploaded if needed and
    /// the kernel may have modified it on device.
    #[must_use]
    pub fn on_launch(self) -> Flags {
        Flags { allocated: true, to_dev: false, to_swap: true }
    }

    /// Device-to-host copy: if the device held the only copy, the slab is
    /// now synchronized; otherwise nothing changes.
    #[must_use]
    pub fn on_copy_dh(self) -> Flags {
        if self.to_swap {
            Flags { allocated: self.allocated, to_dev: false, to_swap: false }
        } else {
            self
        }
    }

    /// Swap-out: device copy (synchronized first if dirty) is dropped; the
    /// slab becomes authoritative. No-op when not allocated.
    #[must_use]
    pub fn on_swap(self) -> Flags {
        if self.allocated {
            Flags { allocated: false, to_dev: true, to_swap: false }
        } else {
            self
        }
    }

    /// Device allocation at materialization: the entry gains a device copy
    /// with nothing in it yet, so who holds the data does not change.
    #[must_use]
    pub fn on_alloc(self) -> Flags {
        Flags { allocated: true, ..self }
    }

    /// The slab reached the device (the bulk upload at launch): both copies
    /// are current. No-op when not allocated.
    #[must_use]
    pub fn on_upload(self) -> Flags {
        if self.allocated {
            Flags { to_dev: false, ..self }
        } else {
            self
        }
    }

    /// The device is gone: an allocated entry falls back to its slab as
    /// after a swap, whatever the device held — nothing was written back,
    /// so the caller reports a dirty one as lost.
    #[must_use]
    pub fn on_device_lost(self) -> Flags {
        self.on_swap()
    }

    /// The five reachable states of Figure 4, as (allocated, to_dev,
    /// to_swap) triples.
    pub const REACHABLE: [Flags; 5] = [
        Flags { allocated: false, to_dev: false, to_swap: false },
        Flags { allocated: false, to_dev: true, to_swap: false },
        Flags { allocated: true, to_dev: false, to_swap: false },
        Flags { allocated: true, to_dev: true, to_swap: false },
        Flags { allocated: true, to_dev: false, to_swap: true },
    ];
}

/// The swap-area slab backing one entry: declared length plus the
/// materialized shadow payload.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SwapSlab {
    /// Bytes this slab represents.
    pub declared: u64,
    /// Materialized bytes (a lazily grown prefix of the declared content;
    /// unwritten materialized bytes read as zero).
    pub data: Vec<u8>,
    /// Materialization cap: `min(declared, configured cap)`.
    pub max_len: u64,
}

impl SwapSlab {
    /// Creates a slab of `declared` bytes, materializing lazily up to `cap`
    /// real bytes.
    pub fn new(declared: u64, cap: u64) -> Self {
        SwapSlab { declared, data: Vec::new(), max_len: declared.min(cap) }
    }

    /// Writes `payload` at `offset`, growing the materialized prefix up to
    /// the cap; bytes past the cap are dropped (shadow semantics).
    pub fn write(&mut self, offset: u64, payload: &[u8]) {
        let target = (offset + payload.len() as u64).min(self.max_len) as usize;
        if self.data.len() < target {
            self.data.resize(target, 0);
        }
        let start = offset as usize;
        if start >= self.data.len() {
            return;
        }
        let n = payload.len().min(self.data.len() - start);
        self.data[start..start + n].copy_from_slice(&payload[..n]);
    }

    /// Lands a whole-entry writeback in place: the bytes of the `size`-byte
    /// device allocation at `dptr` (D2H from offset 0) overwrite the slab's
    /// front, up to the cap, and grow it when they are longer; what the
    /// slab holds past them stays. The copy goes straight into the slab's
    /// own buffer, so a writeback allocates only to grow it. A failed copy
    /// leaves the slab as it was.
    pub(crate) fn write_back(
        &mut self,
        gpu: &Gpu,
        gpu_ctx: GpuContextId,
        dptr: DeviceAddr,
        size: u64,
    ) -> Result<(), GpuError> {
        gpu.memcpy_d2h_into(gpu_ctx, dptr, size, &mut self.data)?;
        self.landed();
        Ok(())
    }

    /// Cuts a writeback that landed in `data` back to the cap.
    pub(crate) fn landed(&mut self) {
        self.data.truncate(self.max_len as usize);
    }

    /// Reads up to `len` materialized bytes at `offset`.
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let start = (offset as usize).min(self.data.len());
        let end = ((offset + len) as usize).min(self.data.len());
        self.data[start..end].to_vec()
    }
}

/// One page-table entry (the paper's `PageTableEntry`, §4.5).
#[derive(Debug, Clone)]
pub struct PageTableEntry {
    /// The virtual pointer handed to the application.
    pub vaddr: DeviceAddr,
    /// Declared size in bytes.
    pub size: u64,
    /// Device pointer when resident.
    pub device_ptr: Option<DeviceAddr>,
    /// Data-location flags (Figure 4).
    pub flags: Flags,
    /// Allocation kind (Table 1 distinguishes Malloc variants via `type`).
    pub kind: AllocKind,
    /// Swap slab (allocated at `malloc` time, per Table 1).
    pub slab: SwapSlab,
    /// Virtual addresses of nested members (entries this one points into),
    /// registered through the runtime API (§1). A change to them is a
    /// change of the table's shape ([`PageTable::reshaped`]).
    pub nested_members: Vec<DeviceAddr>,
    /// Virtual address of the nesting parent, if this entry is a member.
    pub nested_parent: Option<DeviceAddr>,
    /// Most recent deterministic touch (virtual clock + manager sequence);
    /// the staleness signal the intra-application victim order reads.
    pub last_touch: TouchStamp,
}

impl PageTableEntry {
    /// The device pointer of a resident entry.
    pub(crate) fn dptr(&self) -> DeviceAddr {
        self.device_ptr.expect("allocated without ptr")
    }

    /// Writes the device copy back into the slab ([`SwapSlab::write_back`])
    /// and applies Figure 4's `copy_dh`: both copies are current afterwards.
    /// A failed copy changes nothing.
    pub(crate) fn write_back(&mut self, gpu: &Gpu, gpu_ctx: GpuContextId) -> CudaResult<()> {
        let (dptr, size) = (self.dptr(), self.size);
        self.slab.write_back(gpu, gpu_ctx, dptr, size).map_err(CudaError::from_gpu)?;
        self.flags = self.flags.on_copy_dh();
        Ok(())
    }
}

/// A context's page table: virtual-address-ordered entries with interior
/// pointer resolution (applications do pointer arithmetic on their virtual
/// pointers just as they would on device pointers), and the cursor its
/// context's addresses are minted from.
///
/// Its *shape* is which entries there are and what they nest; a counter
/// moves with every change of it, so a launch's walk of its arguments
/// ([`crate::memory::LaunchSet`]) holds for as long as the counter reads
/// the same. Changes of residency and flags leave it.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: BTreeMap<u64, PageTableEntry>,
    /// Bumped by every change of the table's shape.
    shape: u64,
    /// Every malloc the context was sent takes its span here, admitted or
    /// refused (the rule on `CudaCall::Malloc`).
    pub(crate) cursor: VaCursor,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Inserts an entry keyed by its virtual base address.
    pub fn insert(&mut self, entry: PageTableEntry) {
        self.reshaped();
        self.entries.insert(entry.vaddr.0, entry);
    }

    /// Removes the entry with virtual base `vaddr` (base only, CUDA
    /// semantics).
    pub fn remove(&mut self, vaddr: DeviceAddr) -> Option<PageTableEntry> {
        self.reshaped();
        self.entries.remove(&vaddr.0)
    }

    /// The shape counter: it reads the same for as long as the entries and
    /// their nesting do.
    pub fn shape(&self) -> u64 {
        self.shape
    }

    /// Notes a change of shape made through [`Self::get_mut`] (nesting, a
    /// migration's rewrite); [`Self::insert`] and [`Self::remove`] note
    /// their own.
    pub fn reshaped(&mut self) {
        self.shape += 1;
    }

    /// Resolves a (possibly interior) virtual address to `(base, offset)`.
    pub fn resolve(&self, vaddr: DeviceAddr) -> Option<(DeviceAddr, u64)> {
        self.resolve_entry(vaddr).map(|(e, offset)| (e.vaddr, offset))
    }

    /// The entry a (possibly interior) virtual address falls in, and the
    /// offset into it.
    pub fn resolve_entry(&self, vaddr: DeviceAddr) -> Option<(&PageTableEntry, u64)> {
        let (&base, e) = self.entries.range(..=vaddr.0).next_back()?;
        (vaddr.0 < base + e.size).then(|| (e, vaddr.0 - base))
    }

    /// [`Self::resolve_entry`], mutably.
    pub fn resolve_mut(&mut self, vaddr: DeviceAddr) -> Option<(&mut PageTableEntry, u64)> {
        let (&base, e) = self.entries.range_mut(..=vaddr.0).next_back()?;
        (vaddr.0 < base + e.size).then(|| (e, vaddr.0 - base))
    }

    /// The entry with virtual base `vaddr`.
    pub fn get(&self, vaddr: DeviceAddr) -> Option<&PageTableEntry> {
        self.entries.get(&vaddr.0)
    }

    /// Mutable access to the entry with virtual base `vaddr`.
    pub fn get_mut(&mut self, vaddr: DeviceAddr) -> Option<&mut PageTableEntry> {
        self.entries.get_mut(&vaddr.0)
    }

    /// Iterates over entries in virtual-address order.
    pub fn iter(&self) -> impl Iterator<Item = &PageTableEntry> {
        self.entries.values()
    }

    /// Mutable iteration in virtual-address order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut PageTableEntry> {
        self.entries.values_mut()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::Clock;

    fn entry(base: u64, size: u64) -> PageTableEntry {
        PageTableEntry {
            vaddr: DeviceAddr(base),
            size,
            device_ptr: None,
            flags: Flags::INITIAL,
            kind: AllocKind::Linear,
            slab: SwapSlab::new(size, 1 << 20),
            nested_members: Vec::new(),
            nested_parent: None,
            last_touch: TouchStamp::default(),
        }
    }

    #[test]
    fn figure4_canonical_path() {
        // malloc → copyHD → launch → copyDH → swap, the paper's example.
        let s0 = Flags::INITIAL;
        assert_eq!(s0, Flags { allocated: false, to_dev: false, to_swap: false });
        let s1 = s0.on_copy_hd();
        assert_eq!(s1, Flags { allocated: false, to_dev: true, to_swap: false });
        let s2 = s1.on_launch();
        assert_eq!(s2, Flags { allocated: true, to_dev: false, to_swap: true });
        let s3 = s2.on_copy_dh();
        assert_eq!(s3, Flags { allocated: true, to_dev: false, to_swap: false });
        let s4 = s3.on_swap();
        assert_eq!(s4, Flags { allocated: false, to_dev: true, to_swap: false });
    }

    #[test]
    fn figure4_copy_hd_supersedes_device_data() {
        // T/F/T --copyHD--> T/T/F: the host write makes the device copy stale.
        let dirty = Flags { allocated: true, to_dev: false, to_swap: true };
        assert_eq!(dirty.on_copy_hd(), Flags { allocated: true, to_dev: true, to_swap: false });
    }

    #[test]
    fn figure4_copy_dh_without_device_data_is_noop() {
        let host_only = Flags { allocated: false, to_dev: true, to_swap: false };
        assert_eq!(host_only.on_copy_dh(), host_only);
    }

    #[test]
    fn figure4_swap_on_unallocated_is_noop() {
        assert_eq!(Flags::INITIAL.on_swap(), Flags::INITIAL);
    }

    #[test]
    fn figure4_closure_over_five_states() {
        // Applying every event — the paper's four and the manager's own
        // alloc / upload / device-loss — to every reachable state stays
        // within the five states of Figure 4.
        for s in Flags::REACHABLE {
            for next in [
                s.on_copy_hd(),
                s.on_launch(),
                s.on_copy_dh(),
                s.on_swap(),
                s.on_alloc(),
                s.on_upload(),
                s.on_device_lost(),
            ] {
                assert!(
                    Flags::REACHABLE.contains(&next),
                    "{s:?} transitioned outside Figure 4 to {next:?}"
                );
            }
            // Who holds the data survives an allocation; an upload and a
            // device loss leave nothing device-only behind.
            assert!(s.on_alloc().allocated());
            assert_eq!((s.on_alloc().to_dev(), s.on_alloc().to_swap()), (s.to_dev(), s.to_swap()));
            assert!(!s.on_upload().to_dev() || !s.allocated());
            assert!(!s.on_device_lost().allocated() && !s.on_device_lost().to_swap());
        }
    }

    #[test]
    fn checked_constructor_admits_exactly_the_five_states() {
        let mut legal = 0;
        for bits in 0..8u8 {
            let (a, d, w) = (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            match Flags::new(a, d, w) {
                Some(f) => {
                    legal += 1;
                    assert_eq!((f.allocated(), f.to_dev(), f.to_swap()), (a, d, w));
                }
                // Device-only data next to a pending upload (double
                // authority) or with no device copy to hold it.
                None => assert!(w && (d || !a), "{a}/{d}/{w} wrongly refused"),
            }
        }
        assert_eq!(legal, 5);
    }

    #[test]
    fn slab_write_read_roundtrip() {
        let mut slab = SwapSlab::new(64, 1 << 20);
        slab.write(8, &[1, 2, 3, 4]);
        assert_eq!(slab.read(8, 4), vec![1, 2, 3, 4]);
        assert_eq!(slab.read(0, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn slab_clamps_to_materialized_prefix() {
        let mut slab = SwapSlab::new(1 << 30, 16);
        slab.write(0, &[9u8; 64]);
        assert_eq!(slab.data.len(), 16);
        assert_eq!(slab.read(0, 64), vec![9u8; 16]);
        // Writes entirely past the prefix are dropped.
        slab.write(1 << 20, &[1, 2, 3]);
        assert_eq!(slab.read(0, 16), vec![9u8; 16]);
    }

    proptest::proptest! {
        /// A writeback landed in its slab leaves the slab byte-identical to
        /// the device's bytes copied in at offset 0, for a device prefix
        /// shorter than, equal to and longer than the slab's, and past its
        /// cap.
        #[test]
        fn write_back_is_a_copy_at_offset_zero(
            slab_len in 0usize..=48,
            step in 1usize..24,
            salt in proptest::prelude::any::<u8>(),
        ) {
            const CAP: usize = 48;
            let gpu = Gpu::new(GpuSpec::test_small(), Clock::virtual_clock(), 0);
            let gpu_ctx = gpu.create_context().unwrap();
            for device_len in [slab_len.saturating_sub(step), slab_len, slab_len + step, CAP + step] {
                let mut e = entry(0x1000, 1 << 20);
                e.slab = SwapSlab::new(1 << 20, CAP as u64);
                e.slab.write(0, &(0..slab_len).map(|i| i as u8).collect::<Vec<_>>());
                e.flags = Flags::INITIAL.on_launch();
                let dptr = gpu.malloc(gpu_ctx, e.size).unwrap();
                e.device_ptr = Some(dptr);
                let bytes: Vec<u8> = (0..device_len).map(|i| salt ^ (i as u8 | 0x80)).collect();
                gpu.memcpy_h2d(gpu_ctx, dptr, e.size, &bytes).unwrap();
                let mut copied = e.slab.clone();
                copied.write(0, &bytes);
                e.write_back(&gpu, gpu_ctx).unwrap();
                proptest::prop_assert_eq!(&e.slab, &copied);
                proptest::prop_assert_eq!(e.flags, Flags::INITIAL.on_launch().on_copy_dh());
                gpu.free(gpu_ctx, dptr).unwrap();
            }
        }
    }

    #[test]
    fn resolve_interior_addresses() {
        let mut pt = PageTable::new();
        pt.insert(entry(0x1000, 256));
        pt.insert(entry(0x2000, 128));
        assert_eq!(pt.resolve(DeviceAddr(0x1000)), Some((DeviceAddr(0x1000), 0)));
        assert_eq!(pt.resolve(DeviceAddr(0x10ff)), Some((DeviceAddr(0x1000), 0xff)));
        assert_eq!(pt.resolve(DeviceAddr(0x1100)), None);
        assert_eq!(pt.resolve(DeviceAddr(0x2040)), Some((DeviceAddr(0x2000), 0x40)));
        assert_eq!(pt.resolve(DeviceAddr(0xfff)), None);
    }
}
