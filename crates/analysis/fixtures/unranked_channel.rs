// mtlint fixture: the three channel constructions must trip `unranked-lock`
// (the fixtures directory is treated as runtime-crate scope); naming the
// channel's types and the reasoned construction must not.
use std::sync::mpsc::{self, Receiver, Sender};

fn hazards() {
    let (_tx, _rx) = mpsc::channel::<u32>(); // hazard 1: unbounded channel
    let (_tx, _rx) = mpsc::sync_channel::<u32>(1); // hazard 2: bounded channel
    let (_tx, _rx) = std::sync::mpsc::channel::<u32>(); // hazard 3: full path
}

fn clean(tx: Sender<u32>, rx: Receiver<u32>) -> (Sender<u32>, Receiver<u32>) {
    // mtlint: allow(unranked-lock, reason = "fixture: a one-consumer hand-off with no ranked lock held around it")
    let _pair = mpsc::channel::<u32>();
    (tx, rx)
}
