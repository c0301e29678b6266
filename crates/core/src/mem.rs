//! The NCPU's CPU-mode memory port: accelerator banks as data cache.

use ncpu_accel::Accelerator;
use ncpu_pipeline::{MemFault, MemPort};
use ncpu_sim::SramBank;

use crate::l2::SharedL2;

/// Routes the pipeline's MEM stage into the accelerator's SRAM banks
/// (the paper's memory-reuse scheme) and the shared L2.
///
/// In CPU mode the weight banks, image memory and output memory together
/// form the data cache, selected one-hot by the address arbiter
/// (Fig. 4(b)). The same bytes are what the accelerator reads in BNN
/// mode, so no data moves on a mode switch.
#[derive(Debug, Clone)]
pub struct NcpuMem {
    accel: Accelerator,
    l2: SharedL2,
}

impl NcpuMem {
    /// Wraps an accelerator's banks and an L2 window.
    pub fn new(accel: Accelerator, l2: SharedL2) -> NcpuMem {
        NcpuMem { accel, l2 }
    }

    /// The embedded accelerator.
    pub fn accel(&self) -> &Accelerator {
        &self.accel
    }

    /// Mutable access to the embedded accelerator.
    pub fn accel_mut(&mut self) -> &mut Accelerator {
        &mut self.accel
    }

    /// The shared L2 handle.
    pub fn l2(&self) -> &SharedL2 {
        &self.l2
    }
}

impl MemPort for NcpuMem {
    #[inline(always)]
    fn read_local(&mut self, addr: u32, width: u32) -> Result<u32, MemFault> {
        self.accel.banks_mut().read(addr, width).map_err(|_| MemFault { addr })
    }

    #[inline(always)]
    fn write_local(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
        self.accel.banks_mut().write(addr, width, value).map_err(|_| MemFault { addr })
    }

    fn read_l2(&mut self, addr: u32) -> Result<u32, MemFault> {
        self.l2.read_word(addr).map_err(|()| MemFault { addr })
    }

    fn write_l2(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.l2.write_word(addr, value).map_err(|()| MemFault { addr })
    }

    /// The W1 weight bank, registered first: the CPU mode's data cache.
    /// Its accesses route through the arbiter to this bank's own
    /// `read`/`write`, so the bank called directly counts alike.
    fn data_cache(&mut self) -> Option<(u32, &mut SramBank)> {
        self.accel.banks_mut().iter_mut().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_accel::AccelConfig;
    use ncpu_bnn::{BnnModel, Topology};

    fn mem() -> NcpuMem {
        let model = BnnModel::zeros(&Topology::new(32, vec![8, 8], 4));
        NcpuMem::new(Accelerator::new(model, AccelConfig::default()), SharedL2::new(1024))
    }

    #[test]
    fn local_accesses_hit_accelerator_banks() {
        let mut m = mem();
        let image_base = m.accel().image_base();
        m.write_local(image_base, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_local(image_base, 4).unwrap(), 0xdead_beef);
        // The same bytes are visible to the accelerator.
        let bank_byte = m.accel_mut().banks_mut().read(image_base, 1).unwrap();
        assert_eq!(bank_byte, 0xef);
    }

    #[test]
    fn weight_banks_serve_as_data_cache() {
        let mut m = mem();
        // Address 0 is inside the W1 bank — writable as data cache.
        m.write_local(0, 4, 7).unwrap();
        assert_eq!(m.read_local(0, 4).unwrap(), 7);
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut m = mem();
        let err = m.read_local(0x00ff_ffff, 4).unwrap_err();
        assert_eq!(err.addr, 0x00ff_ffff);
    }

    #[test]
    fn l2_window_shared() {
        let mut m = mem();
        m.write_l2(64, 99).unwrap();
        assert_eq!(m.l2().read_word(64).unwrap(), 99);
        assert!(m.read_l2(2048).is_err());
    }
}
