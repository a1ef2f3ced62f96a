//! The hardware status registers of Fig. 7.
//!
//! "We employ a set of registers ... Each register indicates the idling of
//! either a bank of fixed-function PIMs or the programmable PIM. The
//! registers allow our software runtime scheduler to query the completion
//! of any computation and decide the idleness of processing units."

use pim_common::ids::BankId;
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

fn unknown_bank(index: usize) -> PimError {
    PimError::UnknownId {
        kind: "bank register",
        index,
    }
}

/// The busy/idle register file on the logic die.
///
/// The bank bits are packed 64 to a `u64` word, so a write that flips a
/// contiguous run of banks (the engine's busy units fill banks from index
/// 0 upward) touches one word per 64 banks instead of one register per
/// bank.
///
/// # Examples
///
/// ```
/// use pim_hw::registers::StatusRegisters;
/// use pim_common::ids::BankId;
///
/// let mut regs = StatusRegisters::new(32);
/// assert!(regs.all_banks_idle());
/// regs.set_bank_busy(BankId::new(3), true).unwrap();
/// assert!(!regs.all_banks_idle());
/// assert!(regs.bank_busy(BankId::new(3)).unwrap());
/// regs.set_banks_busy(0..8, true).unwrap();
/// assert_eq!(regs.idle_bank_count(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusRegisters {
    /// Bank `i`'s busy bit is bit `i % 64` of word `i / 64`; bits past
    /// `banks` stay clear.
    bank_words: Vec<u64>,
    banks: usize,
    /// Running count of idle banks, kept in lockstep with `bank_words` so
    /// the scheduler's per-decision availability query is O(1) instead of
    /// a scan over every bank register.
    idle_count: usize,
    progr_busy: bool,
}

impl StatusRegisters {
    /// A register file for `banks` fixed-function banks plus the
    /// programmable PIM, all idle.
    pub fn new(banks: usize) -> Self {
        StatusRegisters {
            bank_words: vec![0; banks.div_ceil(64)],
            banks,
            idle_count: banks,
            progr_busy: false,
        }
    }

    /// Reads one bank's busy bit.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for an out-of-range bank.
    pub fn bank_busy(&self, bank: BankId) -> Result<bool> {
        let i = bank.index();
        if i >= self.banks {
            return Err(unknown_bank(i));
        }
        Ok((self.bank_words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// Writes one bank's busy bit.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for an out-of-range bank.
    pub fn set_bank_busy(&mut self, bank: BankId, busy: bool) -> Result<()> {
        let i = bank.index();
        self.set_banks_busy(i..i.saturating_add(1), busy)
    }

    /// Writes the busy bit of every bank in `banks` (an empty range writes
    /// nothing), adjusting the idle count by the number of bits that
    /// actually flipped.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`], writing nothing, when the range
    /// extends past the last bank.
    pub fn set_banks_busy(&mut self, banks: Range<usize>, busy: bool) -> Result<()> {
        if banks.end > self.banks {
            return Err(unknown_bank(banks.start.max(self.banks)));
        }
        let mut i = banks.start;
        while i < banks.end {
            let word = i / 64;
            let lo = i % 64;
            let width = (banks.end - word * 64).min(64) - lo;
            let mask = (u64::MAX >> (64 - width)) << lo;
            let bits = &mut self.bank_words[word];
            let flipped = mask & if busy { !*bits } else { *bits };
            *bits ^= flipped;
            let n = flipped.count_ones() as usize;
            if busy {
                self.idle_count -= n;
            } else {
                self.idle_count += n;
            }
            i = (word + 1) * 64;
        }
        Ok(())
    }

    /// Reads the programmable PIM's busy bit.
    pub fn progr_busy(&self) -> bool {
        self.progr_busy
    }

    /// Writes the programmable PIM's busy bit.
    pub fn set_progr_busy(&mut self, busy: bool) {
        self.progr_busy = busy;
    }

    /// True when every fixed-function bank is idle.
    pub fn all_banks_idle(&self) -> bool {
        self.idle_count == self.banks
    }

    /// Number of idle fixed-function banks.
    pub fn idle_bank_count(&self) -> usize {
        self.idle_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_of_range_bank_is_rejected() {
        let regs = StatusRegisters::new(4);
        assert!(regs.bank_busy(BankId::new(4)).is_err());
    }

    #[test]
    fn busy_bits_toggle_independently() {
        let mut regs = StatusRegisters::new(8);
        regs.set_bank_busy(BankId::new(1), true).unwrap();
        regs.set_progr_busy(true);
        assert_eq!(regs.idle_bank_count(), 7);
        assert!(regs.progr_busy());
        regs.set_bank_busy(BankId::new(1), false).unwrap();
        assert!(regs.all_banks_idle());
    }

    /// Checks every observable of the register file against a plain
    /// one-bool-per-bank model.
    fn assert_matches(regs: &StatusRegisters, model: &[bool]) {
        for (i, &busy) in model.iter().enumerate() {
            assert_eq!(regs.bank_busy(BankId::new(i)).unwrap(), busy, "bank {i}");
        }
        let idle = model.iter().filter(|&&b| !b).count();
        assert_eq!(regs.idle_bank_count(), idle);
        assert_eq!(regs.all_banks_idle(), idle == model.len());
    }

    #[test]
    fn range_writes_cross_word_edges() {
        let mut regs = StatusRegisters::new(444);
        let mut model = vec![false; 444];
        for (range, busy) in [
            (63..65, true),
            (0..444, true),
            (63..65, false),
            (100..100, false),
            (0..444, false),
            (127..129, true),
            (128..444, true),
            (0..1, true),
        ] {
            regs.set_banks_busy(range.clone(), busy).unwrap();
            model[range].fill(busy);
            assert_matches(&regs, &model);
        }
    }

    #[test]
    fn out_of_range_range_is_rejected_and_writes_nothing() {
        let mut regs = StatusRegisters::new(444);
        let before = regs.clone();
        for range in [0..445, 443..445, 444..445, 500..500] {
            assert!(matches!(
                regs.set_banks_busy(range, true),
                Err(PimError::UnknownId {
                    kind: "bank register",
                    ..
                })
            ));
            assert_eq!(regs, before);
        }
        assert!(regs.set_bank_busy(BankId::new(444), true).is_err());
        assert!(regs.set_bank_busy(BankId::new(usize::MAX), true).is_err());
        assert_eq!(regs, before);
    }

    proptest! {
        /// Random mixes of range and single-bank writes agree with the
        /// model after every write; each `u64` draw encodes one write.
        #[test]
        fn mixed_writes_match_a_bool_model(
            banks in 1usize..600,
            writes in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let mut regs = StatusRegisters::new(banks);
            let mut model = vec![false; banks];
            for w in writes {
                let busy = w & 1 == 1;
                let start = (w >> 1) as usize % banks;
                if w >> 40 & 1 == 1 {
                    regs.set_bank_busy(BankId::new(start), busy).unwrap();
                    model[start] = busy;
                } else {
                    let end = start + (w >> 20) as usize % (banks - start + 1);
                    regs.set_banks_busy(start..end, busy).unwrap();
                    model[start..end].fill(busy);
                }
                assert_matches(&regs, &model);
            }
        }
    }
}
