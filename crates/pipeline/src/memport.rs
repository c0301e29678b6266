//! Memory interface of the pipeline's MEM stage.

use std::error::Error;
use std::fmt;

use ncpu_sim::SramBank;

/// A data-memory access fault (out of range / unmapped address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data memory fault at {:#x}", self.addr)
    }
}

impl Error for MemFault {}

/// The MEM-stage port: local data memory plus the write-through L2 window
/// used by the custom `sw_l2`/`lw_l2` instructions.
///
/// Implementations decide what "local" means — a flat array for the
/// standalone CPU ([`FlatMem`]), or the reconfigured weight/image SRAM
/// banks behind an address arbiter for the NCPU core.
pub trait MemPort {
    /// Reads `width` bytes (1, 2 or 4) little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    fn read_local(&mut self, addr: u32, width: u32) -> Result<u32, MemFault>;

    /// Writes the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    fn write_local(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault>;

    /// Reads a word from the global L2 space.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    fn read_l2(&mut self, addr: u32) -> Result<u32, MemFault>;

    /// Writes a word to the global L2 space (write-through semantics).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    fn write_l2(&mut self, addr: u32, value: u32) -> Result<(), MemFault>;

    /// The bank that holds the port's data cache, and the address it is
    /// mapped at, for a caller that accesses the cache in place.
    ///
    /// An implementation that returns a bank promises that, for every
    /// local access lying wholly inside it, reading or writing the bank
    /// at `addr - base` is exactly what [`read_local`](Self::read_local)
    /// or [`write_local`](Self::write_local) at `addr` does: the same
    /// bytes, and the same read or write count and generation bump (see
    /// [`SramBank`]). The functional mode makes its in-window loads and
    /// stores this way, and every other access through the methods
    /// above. The default has no such bank.
    fn data_cache(&mut self) -> Option<(u32, &mut SramBank)> {
        None
    }
}

/// Flat local memory plus flat L2 — the standalone CPU's view.
///
/// # Examples
///
/// ```
/// use ncpu_pipeline::{FlatMem, MemPort};
///
/// let mut m = FlatMem::new(64);
/// m.write_local(0, 4, 0xaabbccdd).unwrap();
/// assert_eq!(m.read_local(2, 2).unwrap(), 0xaabb);
/// ```
#[derive(Debug, Clone)]
pub struct FlatMem {
    local: Vec<u8>,
    l2: Vec<u8>,
    accesses: u64,
    l2_accesses: u64,
}

impl FlatMem {
    /// Default L2 capacity in bytes (matches the 64-KiB shared L2 of the
    /// two-core SoC).
    pub const DEFAULT_L2_BYTES: usize = 64 * 1024;

    /// Creates a flat memory with `local_bytes` of data memory.
    pub fn new(local_bytes: usize) -> FlatMem {
        FlatMem::with_l2(local_bytes, Self::DEFAULT_L2_BYTES)
    }

    /// Creates a flat memory with explicit local and L2 sizes.
    pub fn with_l2(local_bytes: usize, l2_bytes: usize) -> FlatMem {
        FlatMem { local: vec![0; local_bytes], l2: vec![0; l2_bytes], accesses: 0, l2_accesses: 0 }
    }

    /// Local memory contents.
    pub fn local(&self) -> &[u8] {
        &self.local
    }

    /// Mutable local memory (for preloading workload data).
    pub fn local_mut(&mut self) -> &mut [u8] {
        &mut self.local
    }

    /// L2 contents.
    pub fn l2(&self) -> &[u8] {
        &self.l2
    }

    /// Number of local accesses performed through the port.
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of L2 accesses performed through the port.
    pub const fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }
}

impl MemPort for FlatMem {
    fn read_local(&mut self, addr: u32, width: u32) -> Result<u32, MemFault> {
        let end = addr as usize + width as usize;
        if end > self.local.len() {
            return Err(MemFault { addr });
        }
        self.accesses += 1;
        let mut raw = 0u32;
        for i in 0..width as usize {
            raw |= (self.local[addr as usize + i] as u32) << (8 * i);
        }
        Ok(raw)
    }

    fn write_local(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
        let end = addr as usize + width as usize;
        if end > self.local.len() {
            return Err(MemFault { addr });
        }
        self.accesses += 1;
        for i in 0..width as usize {
            self.local[addr as usize + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn read_l2(&mut self, addr: u32) -> Result<u32, MemFault> {
        let end = addr as usize + 4;
        if end > self.l2.len() {
            return Err(MemFault { addr });
        }
        self.l2_accesses += 1;
        Ok(u32::from_le_bytes(self.l2[addr as usize..end].try_into().expect("4 bytes")))
    }

    fn write_l2(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        let end = addr as usize + 4;
        if end > self.l2.len() {
            return Err(MemFault { addr });
        }
        self.l2_accesses += 1;
        self.l2[addr as usize..end].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mem_bounds() {
        let mut m = FlatMem::with_l2(8, 8);
        assert!(m.read_local(5, 4).is_err());
        assert!(m.read_l2(5).is_err());
        assert!(m.write_local(4, 4, 0).is_ok());
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn l2_word_round_trip() {
        let mut m = FlatMem::with_l2(4, 16);
        m.write_l2(8, 0x1234_5678).unwrap();
        assert_eq!(m.read_l2(8).unwrap(), 0x1234_5678);
        assert_eq!(m.l2_accesses(), 2);
    }
}
