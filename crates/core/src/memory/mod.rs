//! Virtual memory for GPUs: page table, swap area, memory manager (§4.5).

pub mod eviction;
pub mod manager;
pub mod page_table;
pub mod swap;
pub mod transfer;

pub use eviction::{EntryCandidate, TouchStamp};
pub use manager::{
    Materialize, MemoryConfig, MemoryManager, MigrationEntry, Recovery, SwapOutcome, SwapReason,
};
pub use page_table::{Flags, PageTable, PageTableEntry, SwapSlab};
pub use swap::SwapArea;
// The allocation-kind tag travels with the wire protocol; re-exported so
// tooling that drives the manager (mtcheck scenarios) needs no api dep.
pub use mtgpu_api::protocol::AllocKind;
pub use transfer::{PlanShape, TransferOp, TransferOutcome};
