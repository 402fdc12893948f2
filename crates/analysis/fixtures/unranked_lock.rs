// mtlint fixture: all four sites must trip `unranked-lock` (the fixtures
// directory is treated as runtime-crate scope).
use std::sync::{Condvar, Mutex};

struct Bad {
    state: Mutex<u32>, // hazard 1: raw lock field in a runtime crate
}

fn hazards() {
    let _m = Mutex::new(0u32); // hazard 2: raw construction
    let _c = Condvar::new(); // hazard 3: raw condvar
    let _r = RankedMutex::new(pick_rank(), 0u32); // hazard 4: rank not a lock_rank constant
}

fn clean() {
    let _ok = RankedMutex::new(lock_rank::MM_STATE, 0u32);
}
