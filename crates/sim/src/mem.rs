//! Banked SRAM model with the address arbiter of paper Fig. 4(b).

use std::cell::{Cell, RefCell};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifies one [`SramBank`] within an [`AddressArbiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub(crate) usize);

impl BankId {
    /// The bank's index in arbiter registration order.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Error raised on an out-of-range or misaligned SRAM access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The byte address is not mapped by any bank.
    Unmapped {
        /// Faulting global byte address.
        addr: u32,
    },
    /// The access crosses the end of its bank.
    OutOfRange {
        /// Name of the bank.
        bank: String,
        /// Faulting in-bank byte offset.
        offset: u32,
        /// Bank capacity in bytes.
        capacity: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "address {addr:#x} is not mapped"),
            MemError::OutOfRange { bank, offset, capacity } => {
                write!(f, "offset {offset:#x} out of range for bank `{bank}` ({capacity} bytes)")
            }
        }
    }
}

impl Error for MemError {}

/// One physical SRAM bank: a byte array with access counters.
///
/// The counters (`reads`/`writes`) feed the activity-based power model; the
/// `enabled` flag models the clock gating the paper applies to unused banks
/// ("the rest of the unused memory are clock gated").
///
/// The bank also keeps a write [`generation`](Self::generation): every
/// call to one of its three mutators ([`write`](Self::write),
/// [`load`](Self::load), [`set_enabled`](Self::set_enabled)) bumps it,
/// whether or not the bytes actually change. An unchanged generation
/// therefore proves the contents and enable flag are unchanged, which
/// lets a replay memo skip re-comparing them, and lets
/// [`snapshot`](Self::snapshot) hand out one shared copy of the
/// contents until the next mutation.
///
/// # Examples
///
/// ```
/// use ncpu_sim::SramBank;
///
/// let mut bank = SramBank::new("w1", 25 * 1024);
/// bank.write_word(0, 0xdead_beef).unwrap();
/// assert_eq!(bank.read_word(0).unwrap(), 0xdead_beef);
/// assert_eq!(bank.reads(), 1);
/// assert_eq!(bank.writes(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SramBank {
    name: String,
    data: Vec<u8>,
    reads: u64,
    writes: u64,
    enabled: bool,
    generation: u64,
    /// The last [`snapshot`](Self::snapshot) and the generation it was
    /// taken at; current while the generation has not moved since.
    snapshot: RefCell<Option<(u64, Arc<[u8]>)>>,
}

impl SramBank {
    /// Creates a zero-initialized bank of `bytes` bytes.
    pub fn new(name: impl Into<String>, bytes: usize) -> SramBank {
        SramBank {
            name: name.into(),
            data: vec![0; bytes],
            reads: 0,
            writes: 0,
            enabled: true,
            generation: 0,
            snapshot: RefCell::new(None),
        }
    }

    /// The bank's name (used in power reports and errors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Number of counted read accesses.
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of counted write accesses.
    pub const fn writes(&self) -> u64 {
        self.writes
    }

    /// Whether the bank's clock is running (gated banks draw no dynamic power).
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or clock-gates the bank. Gated banks remain readable in the
    /// simulator (data is retained); only the accounting changes.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.generation += 1;
        self.enabled = enabled;
    }

    /// Number of mutator calls so far (see the type docs): equal
    /// generations at two points in time mean equal contents and enable
    /// flag. Reads and counter resets leave it alone.
    pub const fn generation(&self) -> u64 {
        self.generation
    }

    /// Resets the access counters (e.g. at a phase boundary).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    #[inline]
    fn check(&self, offset: u32, width: u32) -> Result<(), MemError> {
        if offset as usize + width as usize > self.data.len() {
            Err(self.out_of_range(offset))
        } else {
            Ok(())
        }
    }

    #[cold]
    fn out_of_range(&self, offset: u32) -> MemError {
        MemError::OutOfRange { bank: self.name.clone(), offset, capacity: self.data.len() as u32 }
    }

    /// Reads `width` bytes little-endian at `offset`, counting one access.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the bank end.
    #[inline]
    pub fn read(&mut self, offset: u32, width: u32) -> Result<u32, MemError> {
        self.check(offset, width)?;
        self.reads += 1;
        let at = offset as usize;
        let bytes = &self.data[at..at + width as usize];
        Ok(match width {
            1 => u32::from(bytes[0]),
            2 => u32::from(u16::from_le_bytes([bytes[0], bytes[1]])),
            4 => u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            _ => bytes.iter().enumerate().fold(0, |raw, (i, &b)| raw | u32::from(b) << (8 * i)),
        })
    }

    /// Writes the low `width` bytes of `value` little-endian at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the bank end.
    #[inline]
    pub fn write(&mut self, offset: u32, width: u32, value: u32) -> Result<(), MemError> {
        self.check(offset, width)?;
        self.writes += 1;
        self.generation += 1;
        let at = offset as usize;
        let bytes = &mut self.data[at..at + width as usize];
        match width {
            1 => bytes[0] = value as u8,
            2 => bytes.copy_from_slice(&(value as u16).to_le_bytes()),
            4 => bytes.copy_from_slice(&value.to_le_bytes()),
            _ => {
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (value >> (8 * i)) as u8;
                }
            }
        }
        Ok(())
    }

    /// Reads a 32-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn read_word(&mut self, offset: u32) -> Result<u32, MemError> {
        self.read(offset, 4)
    }

    /// Writes a 32-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// See [`write`](Self::write).
    pub fn write_word(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
        self.write(offset, 4, value)
    }

    /// Bulk-loads `bytes` starting at `offset` without counting accesses
    /// (models production-time initialization, not runtime traffic).
    ///
    /// # Panics
    ///
    /// Panics if the data does not fit.
    pub fn load(&mut self, offset: usize, bytes: &[u8]) {
        self.generation += 1;
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Raw view of the bank contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// The bank contents as a shared immutable copy. Calls with no
    /// mutation in between return the same allocation, so snapshotting
    /// an unchanged bank copies nothing.
    pub fn snapshot(&self) -> Arc<[u8]> {
        let mut cached = self.snapshot.borrow_mut();
        match &*cached {
            Some((generation, bytes)) if *generation == self.generation => Arc::clone(bytes),
            _ => {
                let bytes: Arc<[u8]> = Arc::from(self.data.as_slice());
                *cached = Some((self.generation, Arc::clone(&bytes)));
                bytes
            }
        }
    }

    /// Whether the bank currently holds exactly `bytes`. Free when
    /// `bytes` is the bank's current [`snapshot`](Self::snapshot) (same
    /// allocation, no mutation since); otherwise compares the bytes.
    pub fn holds(&self, bytes: &Arc<[u8]>) -> bool {
        match &*self.snapshot.borrow() {
            Some((generation, current))
                if *generation == self.generation && Arc::ptr_eq(current, bytes) =>
            {
                true
            }
            _ => *self.data == **bytes,
        }
    }
}

/// Routes a flat address space onto multiple [`SramBank`]s, enabling exactly
/// one bank per access — the address-arbiter design of paper Fig. 4(b).
///
/// Banks are registered with a base address; lookups are linear over the
/// (small) bank list, matching the one-hot enable logic of the hardware.
///
/// # Examples
///
/// ```
/// use ncpu_sim::AddressArbiter;
///
/// let mut arb = AddressArbiter::new();
/// let w1 = arb.add_bank("w1", 0x0000, 1024);
/// let w2 = arb.add_bank("w2", 0x1000, 1024);
/// arb.write(0x1004, 4, 7).unwrap();
/// assert_eq!(arb.read(0x1004, 4).unwrap(), 7);
/// assert_eq!(arb.bank(w2).writes(), 1);
/// assert_eq!(arb.bank(w1).writes(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressArbiter {
    banks: Vec<SramBank>,
    bases: Vec<u32>,
    /// Most-recently-hit bank: the single-requester fast path. Simulated
    /// access streams are heavily bank-local (a CPU phase hammers the data
    /// cache, an inference phase streams one weight bank), so checking the
    /// last hit first turns the linear scan into O(1) for the common case.
    /// A `Cell` because `resolve` is logically read-only; the hint only
    /// affects speed, never which bank an address maps to.
    last_hit: Cell<usize>,
}

impl AddressArbiter {
    /// Creates an arbiter with no banks.
    pub fn new() -> AddressArbiter {
        AddressArbiter::default()
    }

    /// Registers a bank mapped at `[base, base + bytes)` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the new range overlaps an existing bank; overlapping windows
    /// would make the one-hot enable ambiguous.
    pub fn add_bank(&mut self, name: impl Into<String>, base: u32, bytes: usize) -> BankId {
        let end = base as u64 + bytes as u64;
        for (i, b) in self.banks.iter().enumerate() {
            let b0 = self.bases[i] as u64;
            let b1 = b0 + b.capacity() as u64;
            assert!(
                end <= b0 || base as u64 >= b1,
                "bank range overlaps existing bank `{}`",
                b.name()
            );
        }
        self.banks.push(SramBank::new(name, bytes));
        self.bases.push(base);
        BankId(self.banks.len() - 1)
    }

    /// Number of registered banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arbiter.
    pub fn bank(&self, id: BankId) -> &SramBank {
        &self.banks[id.0]
    }

    /// Mutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arbiter.
    pub fn bank_mut(&mut self, id: BankId) -> &mut SramBank {
        &mut self.banks[id.0]
    }

    /// Iterates over `(base, bank)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SramBank)> {
        self.bases.iter().copied().zip(self.banks.iter())
    }

    /// Mutable iteration over `(base, bank)` pairs in registration order
    /// (bulk state capture/restore across all banks).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut SramBank)> {
        self.bases.iter().copied().zip(self.banks.iter_mut())
    }

    /// Resolves a global address to its bank and in-bank offset.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if no bank covers `addr`.
    #[inline]
    pub fn resolve(&self, addr: u32) -> Result<(BankId, u32), MemError> {
        let hint = self.last_hit.get();
        if let (Some(bank), Some(&base)) = (self.banks.get(hint), self.bases.get(hint)) {
            if addr >= base && (addr as u64) < base as u64 + bank.capacity() as u64 {
                return Ok((BankId(hint), addr - base));
            }
        }
        self.resolve_scan(addr)
    }

    /// [`resolve`](Self::resolve) past a missed hint: the linear scan.
    #[inline(never)]
    fn resolve_scan(&self, addr: u32) -> Result<(BankId, u32), MemError> {
        for (i, bank) in self.banks.iter().enumerate() {
            let base = self.bases[i];
            if addr >= base && (addr as u64) < base as u64 + bank.capacity() as u64 {
                self.last_hit.set(i);
                return Ok((BankId(i), addr - base));
            }
        }
        Err(MemError::Unmapped { addr })
    }

    /// Reads `width` bytes at global address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or bank-crossing accesses.
    #[inline]
    pub fn read(&mut self, addr: u32, width: u32) -> Result<u32, MemError> {
        let (id, offset) = self.resolve(addr)?;
        self.banks[id.0].read(offset, width)
    }

    /// Writes the low `width` bytes of `value` at global address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or bank-crossing accesses.
    #[inline]
    pub fn write(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemError> {
        let (id, offset) = self.resolve(addr)?;
        self.banks[id.0].write(offset, width, value)
    }

    /// Total read+write accesses across all banks.
    pub fn total_accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.reads() + b.writes()).sum()
    }

    /// Resets every bank's access counters.
    pub fn reset_counters(&mut self) {
        for b in &mut self.banks {
            b.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_counts_accesses() {
        let mut b = SramBank::new("t", 16);
        b.write_word(0, 1).unwrap();
        b.write_word(4, 2).unwrap();
        b.read_word(0).unwrap();
        assert_eq!((b.reads(), b.writes()), (1, 2));
        b.reset_counters();
        assert_eq!((b.reads(), b.writes()), (0, 0));
    }

    #[test]
    fn bank_rejects_out_of_range() {
        let mut b = SramBank::new("t", 8);
        assert!(matches!(b.read(6, 4), Err(MemError::OutOfRange { .. })));
        assert!(b.read(4, 4).is_ok());
    }

    #[test]
    fn bank_subword_access() {
        let mut b = SramBank::new("t", 8);
        b.write_word(0, 0x0403_0201).unwrap();
        assert_eq!(b.read(1, 2).unwrap(), 0x0302);
        b.write(3, 1, 0xff).unwrap();
        assert_eq!(b.read_word(0).unwrap(), 0xff03_0201);
    }

    #[test]
    fn odd_widths_take_the_byte_loop() {
        let mut b = SramBank::new("t", 8);
        b.write(1, 3, 0xaabb_ccdd).unwrap();
        assert_eq!(b.bytes()[..5], [0, 0xdd, 0xcc, 0xbb, 0]);
        assert_eq!(b.read(1, 3).unwrap(), 0x00bb_ccdd);
        assert_eq!(b.read(0, 0).unwrap(), 0);
        assert!(matches!(b.read(6, 3), Err(MemError::OutOfRange { offset: 6, .. })));
        assert_eq!((b.reads(), b.writes()), (2, 1));
    }

    #[test]
    fn load_does_not_count() {
        let mut b = SramBank::new("t", 8);
        b.load(0, &[1, 2, 3, 4]);
        assert_eq!(b.writes(), 0);
        assert_eq!(b.read_word(0).unwrap(), 0x0403_0201);
    }

    #[test]
    fn arbiter_routes_by_address() {
        let mut arb = AddressArbiter::new();
        let a = arb.add_bank("a", 0, 64);
        let b = arb.add_bank("b", 0x100, 64);
        arb.write(0x10, 4, 1).unwrap();
        arb.write(0x110, 4, 2).unwrap();
        assert_eq!(arb.bank(a).writes(), 1);
        assert_eq!(arb.bank(b).writes(), 1);
        assert_eq!(arb.read(0x110, 4).unwrap(), 2);
        assert_eq!(arb.total_accesses(), 3);
    }

    #[test]
    fn arbiter_fast_path_never_changes_routing() {
        // Alternate between banks so the MRU hint is wrong on every other
        // access; resolution must be identical to a fresh arbiter's.
        let mut arb = AddressArbiter::new();
        arb.add_bank("a", 0, 64);
        arb.add_bank("b", 0x100, 64);
        arb.add_bank("c", 0x200, 64);
        for round in 0..3 {
            for (addr, want) in [(0x10u32, 0usize), (0x210, 2), (0x110, 1), (0x3f, 0)] {
                let (id, off) = arb.resolve(addr).unwrap();
                assert_eq!(id.index(), want, "round {round} addr {addr:#x}");
                assert_eq!(off, addr & 0xff, "round {round} addr {addr:#x}");
            }
            assert!(matches!(arb.resolve(0x300), Err(MemError::Unmapped { .. })));
        }
    }

    #[test]
    fn arbiter_reports_unmapped() {
        let mut arb = AddressArbiter::new();
        arb.add_bank("a", 0, 64);
        assert_eq!(arb.read(64, 4), Err(MemError::Unmapped { addr: 64 }));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn arbiter_rejects_overlap() {
        let mut arb = AddressArbiter::new();
        arb.add_bank("a", 0, 64);
        arb.add_bank("b", 32, 64);
    }

    #[test]
    fn arbiter_adjacent_banks_ok() {
        let mut arb = AddressArbiter::new();
        arb.add_bank("a", 0, 64);
        arb.add_bank("b", 64, 64);
        assert_eq!(arb.resolve(63).unwrap().0.index(), 0);
        assert_eq!(arb.resolve(64).unwrap().0.index(), 1);
    }

    #[test]
    fn mutators_and_only_mutators_bump_the_generation() {
        let mut b = SramBank::new("t", 8);
        assert_eq!(b.generation(), 0);
        let mut expect = 0;
        for width in [1, 2, 4] {
            b.write(0, width, 0xff).unwrap();
            expect += 1;
            assert_eq!(b.generation(), expect, "write width {width}");
        }
        b.write_word(4, 7).unwrap();
        b.load(0, &[1, 2]);
        b.set_enabled(false);
        b.set_enabled(false);
        expect += 4;
        assert_eq!(b.generation(), expect, "write_word, load, set_enabled (even a no-op)");
        // A rejected write changes nothing, so it does not count either.
        assert!(b.write(6, 4, 0).is_err());
        b.read(0, 1).unwrap();
        b.read_word(4).unwrap();
        b.reset_counters();
        let _ = b.bytes();
        assert_eq!(b.generation(), expect, "reads, counter resets and views never bump");
        // Clones carry the generation, so a cloned core keeps its proofs.
        assert_eq!(b.clone().generation(), expect);
    }

    #[test]
    fn snapshots_are_shared_until_the_next_mutation() {
        let mut b = SramBank::new("t", 8);
        let first = b.snapshot();
        assert!(Arc::ptr_eq(&first, &b.snapshot()), "no mutation: same copy");
        assert!(b.holds(&first));
        b.read_word(0).unwrap();
        assert!(Arc::ptr_eq(&first, &b.snapshot()), "reads do not mutate");
        b.write(0, 1, 0).unwrap();
        assert!(b.holds(&first), "same bytes: still held, found by comparing");
        let second = b.snapshot();
        assert!(!Arc::ptr_eq(&first, &second), "a mutation takes a fresh copy");
        b.write(0, 1, 9).unwrap();
        assert!(!b.holds(&second) && !b.holds(&first));
        b.load(0, &[0]);
        assert!(b.holds(&second), "loaded back to the snapshot's bytes");
        let mut clone = b.clone();
        let shared = b.snapshot();
        assert!(clone.holds(&shared));
        clone.write(4, 1, 1).unwrap();
        assert!(!clone.holds(&shared) && b.holds(&shared), "clones diverge independently");
    }

    #[test]
    fn gating_flag_toggles() {
        let mut b = SramBank::new("t", 8);
        assert!(b.is_enabled());
        b.set_enabled(false);
        assert!(!b.is_enabled());
    }
}
