//! Virtual memory for GPUs: page table, swap area, memory manager (§4.5).
//!
//! One [`PageTable`] per context, each behind its own lock and minting its
//! context's virtual addresses; the [`MemoryManager`] keeps the directory
//! of them plus what is node-wide (swap accounting, per-device swap
//! traffic) behind a leaf lock. Its methods are split along their seams:
//! [`manager`] (tables, accounting, the Table 1 calls), [`launch`] (a
//! launch's passes), [`residency`] (`materialize` and own-entry eviction),
//! [`swapout`] (swap-out, checkpoint, device loss), [`migration`] and
//! [`image`]. Every residency transition is one pass under the context's
//! table lock, moving data as one device call per plan
//! ([`transfer::Plan`]) with payloads borrowed from the slabs; [`Flags`]'
//! transitions are the only way a flag changes.

pub mod eviction;
mod image;
mod launch;
pub mod manager;
mod migration;
pub mod page_table;
mod residency;
pub mod swap;
mod swapout;
mod transfer;

pub use eviction::{EntryCandidate, TouchStamp};
pub(crate) use launch::LaunchSet;
pub use manager::{
    Materialize, MemoryConfig, MemoryManager, MigrationEntry, Recovery, SwapOutcome, SwapReason,
};
pub use page_table::{Flags, PageTable, PageTableEntry, SwapSlab};
pub use swap::SwapArea;
// The allocation-kind tag travels with the wire protocol; re-exported so
// tooling that drives the manager (mtcheck scenarios) needs no api dep.
pub use mtgpu_api::protocol::AllocKind;
