//! Correctness gate: every result the structures return is checked.
//!
//! Each worker keeps a per-key, wrapping net-success ledger (+1 for a
//! successful insert, −1 for a successful remove). After a phase the
//! ledgers are folded into the expected membership (prefill plus every
//! earlier phase), and a `contains` sweep over the whole key range must
//! agree with it key by key. A key where they differ is one failed op.
//! The check holds under any interleaving: a linearizable set's
//! successful inserts and removes of one key alternate, so its membership
//! is its initial state plus their difference.

use std::sync::Arc;

use mp_ds::ConcurrentSet;
use mp_smr::{Smr, SmrHandle, Telemetry, TelemetrySnapshot};

use crate::gen::Op;

/// One worker's net successful updates per key, modulo 256.
#[derive(Debug, Clone)]
pub struct Ledger {
    net: Vec<u8>,
}

impl Ledger {
    /// An empty ledger over keys `[0, range)`.
    pub fn new(range: u64) -> Ledger {
        Ledger {
            net: vec![0; range as usize],
        }
    }

    /// Records the outcome of one operation.
    #[inline]
    pub fn record(&mut self, op: Op, key: u64, ok: bool) {
        let slot = &mut self.net[key as usize];
        match (op, ok) {
            (Op::Insert, true) => *slot = slot.wrapping_add(1),
            (Op::Remove, true) => *slot = slot.wrapping_sub(1),
            _ => {}
        }
    }

    /// Adds this ledger into `expected` and clears it for the next phase.
    pub fn fold_into(&mut self, expected: &mut [u8]) {
        for (e, n) in expected.iter_mut().zip(self.net.iter_mut()) {
            *e = e.wrapping_add(std::mem::take(n));
        }
    }
}

/// Membership of the prefill as a 0/1 vector over `[0, range)`.
pub fn expected_from(keys: &[u64], range: u64) -> Vec<u8> {
    let mut e = vec![0; range as usize];
    for &k in keys {
        e[k as usize] = 1;
    }
    e
}

/// Sweeps `set` with `threads` fresh handles, comparing each key's
/// membership with `expected` (ledgers already folded in). Returns the
/// number of keys that disagree; `expected` is left holding what the
/// structure actually contains, so one lost update is counted once, not
/// again after every later phase. Each sweep handle's telemetry is merged
/// into `acc` after a final drain.
pub fn sweep<S: Smr, D: ConcurrentSet<S>>(
    smr: &Arc<S>,
    set: &D,
    expected: &mut [u8],
    threads: usize,
    acc: &mut TelemetrySnapshot,
) -> u64 {
    let chunk = expected.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|sc| {
        let workers: Vec<_> = expected
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, part)| {
                sc.spawn(move || {
                    let mut h = smr
                        .try_register()
                        .expect("registry has room for the sweep handles");
                    let base = (i * chunk) as u64;
                    let mut bad = 0;
                    for (j, e) in part.iter_mut().enumerate() {
                        let present = set.contains(&mut h, base + j as u64) as u8;
                        bad += (present != *e) as u64;
                        *e = present;
                    }
                    h.force_empty();
                    (bad, h.snapshot())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                let (bad, snap) = w.join().expect("sweep thread panicked");
                acc.merge(&snap);
                bad
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_ds::LinkedList;
    use mp_smr::schemes::Ebr;
    use mp_smr::Config;

    #[test]
    fn ledger_nets_wrap_and_fold() {
        let mut l = Ledger::new(4);
        for _ in 0..300 {
            l.record(Op::Insert, 1, true);
            l.record(Op::Remove, 1, true);
        }
        l.record(Op::Insert, 2, true);
        l.record(Op::Insert, 3, false);
        l.record(Op::Contains, 3, true);
        let mut e = vec![1, 0, 0, 0];
        l.fold_into(&mut e);
        assert_eq!(e, [1, 0, 1, 0]);
        l.fold_into(&mut e);
        assert_eq!(e, [1, 0, 1, 0], "folding clears the ledger");
    }

    #[test]
    fn sweep_counts_each_disagreeing_key_once() {
        let smr = Ebr::try_new(Config::default().with_max_threads(4)).unwrap();
        let set: LinkedList<Ebr> = LinkedList::new(&smr);
        let mut h = smr.try_register().unwrap();
        for k in [1, 5, 9] {
            set.insert(&mut h, k);
        }
        let mut expected = expected_from(&[1, 5, 9], 16);
        let mut acc = TelemetrySnapshot::default();
        assert_eq!(sweep(&smr, &set, &mut expected, 2, &mut acc), 0);
        set.remove(&mut h, 5);
        set.insert(&mut h, 6);
        assert_eq!(sweep(&smr, &set, &mut expected, 2, &mut acc), 2);
        assert_eq!(
            sweep(&smr, &set, &mut expected, 2, &mut acc),
            0,
            "adopts actual contents"
        );
    }
}
