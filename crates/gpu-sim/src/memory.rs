//! Global and shared memory with bounds checking and bit-corruption
//! tracking for the ECC model.

use std::collections::HashMap;
use std::fmt;

/// Memory access violation (produces a DUE, like a CUDA device exception).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryError {
    /// Offending byte address.
    pub addr: u32,
    /// Bytes the access covered.
    pub len: u32,
    /// Capacity of the space that was violated.
    pub capacity: u32,
}

/// The aligned 32-bit word starting at `base` (caller checks bounds).
fn word_at(data: &[u8], base: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&data[base..base + 4]);
    u32::from_le_bytes(bytes)
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address 0x{:x}..+{} out of bounds (capacity 0x{:x})",
            self.addr, self.len, self.capacity
        )
    }
}

impl std::error::Error for MemoryError {}

/// Device global memory: a flat byte-addressed space.
///
/// Bit corruptions from particle strikes are tracked per 32-bit ECC word
/// *separately* from the data: with ECC enabled, a word with one flipped
/// bit is corrected on read (the flip is dropped), and a word with two or
/// more distinct flipped bits raises a double-bit detection (DUE). With
/// ECC disabled, flips are applied to the data on read. This mirrors
/// SECDED DRAM/SRAM behaviour (Section III-A).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GlobalMemory {
    data: Vec<u8>,
    /// XOR masks of struck bits, per aligned 32-bit word index, plus the
    /// number of distinct bit strikes the word received.
    corruption: HashMap<u32, (u32, u8)>,
}

impl GlobalMemory {
    /// Allocate `bytes` of zeroed global memory.
    pub fn new(bytes: u32) -> Self {
        GlobalMemory { data: vec![0; bytes as usize], corruption: HashMap::new() }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data access (host-side verification reads results directly;
    /// pending ECC corruption masks are NOT applied — use
    /// [`GlobalMemory::read_u32_host`]-style accessors for device
    /// semantics).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemoryError> {
        let end = addr as u64 + len as u64;
        if end > self.data.len() as u64 {
            Err(MemoryError { addr, len, capacity: self.data.len() as u32 })
        } else {
            Ok(addr as usize)
        }
    }

    /// Host-side typed write (little-endian), for input preparation.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation;
    /// host accesses never abort the process.
    pub fn write_u32_host(&mut self, addr: u32, value: u32) -> Result<(), MemoryError> {
        let i = self.check(addr, 4)?;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Host-side typed read.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn read_u32_host(&self, addr: u32) -> Result<u32, MemoryError> {
        let i = self.check(addr, 4)?;
        Ok(word_at(&self.data, i))
    }

    /// Host-side f32 helpers.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn write_f32_host(&mut self, addr: u32, value: f32) -> Result<(), MemoryError> {
        self.write_u32_host(addr, value.to_bits())
    }

    /// Host-side f32 read.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn read_f32_host(&self, addr: u32) -> Result<f32, MemoryError> {
        Ok(f32::from_bits(self.read_u32_host(addr)?))
    }

    /// Host-side f64 helpers (two aligned words, little-endian).
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn write_f64_host(&mut self, addr: u32, value: f64) -> Result<(), MemoryError> {
        let bits = value.to_bits();
        self.write_u32_host(addr, bits as u32)?;
        self.write_u32_host(addr + 4, (bits >> 32) as u32)
    }

    /// Host-side f64 read.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn read_f64_host(&self, addr: u32) -> Result<f64, MemoryError> {
        let lo = self.read_u32_host(addr)? as u64;
        let hi = self.read_u32_host(addr + 4)? as u64;
        Ok(f64::from_bits(lo | (hi << 32)))
    }

    /// Host-side u16 helpers (for binary16 arrays).
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn write_u16_host(&mut self, addr: u32, value: u16) -> Result<(), MemoryError> {
        let i = self.check(addr, 2)?;
        self.data[i..i + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Host-side u16 read.
    ///
    /// # Errors
    /// [`MemoryError`] when the access falls outside the allocation.
    pub fn read_u16_host(&self, addr: u32) -> Result<u16, MemoryError> {
        let i = self.check(addr, 2)?;
        let mut bytes = [0u8; 2];
        bytes.copy_from_slice(&self.data[i..i + 2]);
        Ok(u16::from_le_bytes(bytes))
    }

    /// Record a particle strike flipping `bit` (0..32) of the aligned word
    /// containing `byte_addr`. The flip is latent until the word is read.
    pub fn strike_bit(&mut self, byte_addr: u32, bit: u32) {
        if byte_addr >= self.len() {
            return; // strike outside the allocation: no effect on the run
        }
        let word = byte_addr / 4;
        let entry = self.corruption.entry(word).or_insert((0, 0));
        entry.0 ^= 1 << (bit & 31);
        entry.1 = entry.1.saturating_add(1);
    }

    /// Number of words currently carrying latent corruption.
    pub fn corrupted_words(&self) -> usize {
        self.corruption.len()
    }

    /// Device read of `len` bytes at `addr` under the ECC policy.
    ///
    /// Returns the (possibly corrected or corrupted) bytes, plus `true` if
    /// an ECC double-bit detection fired (the caller turns that into a
    /// DUE). When `ecc` is on, single-bit flips are silently corrected and
    /// *cleared* (scrubbing on access).
    pub fn device_read(
        &mut self,
        addr: u32,
        len: u32,
        ecc: bool,
    ) -> Result<(u64, bool), MemoryError> {
        let i = self.check(addr, len)?;
        // The 2-, 4- and 8-byte widths read at a fixed length: one copy of
        // a length known only at run time cost golden runs a tenth or more
        // of their rate (DESIGN.md §14, "Stuck-at runs").
        let data = &self.data[i..];
        let mut value = match len {
            2 => u64::from(u16::from_le_bytes([data[0], data[1]])),
            4 => u64::from(u32::from_le_bytes([data[0], data[1], data[2], data[3]])),
            8 => u64::from_le_bytes([
                data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7],
            ]),
            _ => {
                let mut bytes = [0u8; 8];
                bytes[..len as usize].copy_from_slice(&data[..len as usize]);
                u64::from_le_bytes(bytes)
            }
        };
        if self.corruption.is_empty() {
            return Ok((value, false));
        }
        let mut double_bit = false;
        // Apply corruption word by word.
        let first_word = addr / 4;
        let last_word = (addr + len - 1) / 4;
        for w in first_word..=last_word {
            if let Some(&(mask, strikes)) = self.corruption.get(&w) {
                if ecc {
                    if strikes >= 2 || mask.count_ones() >= 2 {
                        double_bit = true;
                    }
                    // Corrected (or detected): scrub.
                    self.corruption.remove(&w);
                } else {
                    // Apply the flips to the returned value and persist them
                    // into the backing store (the corrupted word is what the
                    // rest of the program sees from now on).
                    let base = (w * 4) as usize;
                    let stored = word_at(&self.data, base) ^ mask;
                    self.data[base..base + 4].copy_from_slice(&stored.to_le_bytes());
                    self.corruption.remove(&w);
                    // Recompute the value bytes that overlap this word.
                    let overlap_start = (w * 4).max(addr);
                    let overlap_end = ((w + 1) * 4).min(addr + len);
                    for b in overlap_start..overlap_end {
                        let byte = self.data[b as usize];
                        let shift = (b - addr) * 8;
                        value &= !(0xFFu64 << shift);
                        value |= (byte as u64) << shift;
                    }
                }
            }
        }
        Ok((value, double_bit))
    }

    /// Device write of `len` bytes at `addr`. Writing a word clears its
    /// latent corruption (the cell is rewritten).
    pub fn device_write(&mut self, addr: u32, len: u32, value: u64) -> Result<(), MemoryError> {
        let i = self.check(addr, len)?;
        let bytes = value.to_le_bytes();
        self.data[i..i + len as usize].copy_from_slice(&bytes[..len as usize]);
        if self.corruption.is_empty() {
            return Ok(());
        }
        let first_word = addr / 4;
        let last_word = (addr + len - 1) / 4;
        for w in first_word..=last_word {
            // A partial-word write only clears corruption if it covers the
            // struck bits; treating any write as clearing the whole word is
            // a simplification that slightly *underestimates* memory error
            // rates, noted in DESIGN.md.
            self.corruption.remove(&w);
        }
        Ok(())
    }

    /// Aligned 32-bit words in the space (a trailing partial word counts).
    pub(crate) fn words(&self) -> usize {
        self.data.len().div_ceil(4)
    }

    /// The data of word `w`, little-endian, zero-padded past the end of
    /// the space; latent corruption is not applied.
    pub(crate) fn word(&self, w: usize) -> u32 {
        let base = w * 4;
        let end = (base + 4).min(self.data.len());
        let mut bytes = [0u8; 4];
        bytes[..end - base].copy_from_slice(&self.data[base..end]);
        u32::from_le_bytes(bytes)
    }

    /// Set the data of word `w` (see [`GlobalMemory::word`]), leaving
    /// latent corruption as it is.
    pub(crate) fn set_word(&mut self, w: usize, value: u32) {
        let base = w * 4;
        let end = (base + 4).min(self.data.len());
        self.data[base..end].copy_from_slice(&value.to_le_bytes()[..end - base]);
    }

    /// Words carrying latent corruption, in no particular order.
    pub(crate) fn corrupted(&self) -> impl Iterator<Item = usize> + '_ {
        self.corruption.keys().map(|&w| w as usize)
    }

    /// Take word `w`'s bytes from `from` and drop its latent corruption,
    /// as a device write covering the word would.
    pub(crate) fn adopt_word(&mut self, w: usize, from: &GlobalMemory) {
        let base = w * 4;
        let end = (base + 4).min(self.data.len());
        self.data[base..end].copy_from_slice(&from.data[base..end]);
        self.corruption.remove(&(w as u32));
    }

    /// Take all of `from`'s bytes and latent corruption, in place.
    pub(crate) fn adopt(&mut self, from: &GlobalMemory) {
        self.data.copy_from_slice(&from.data);
        self.corruption.clone_from(&from.corruption);
    }

    /// Sweep all remaining latent corruption through the ECC policy, as a
    /// background scrubber / end-of-kernel ECC check would. Returns `true`
    /// if any word held a double-bit error (DUE with ECC on).
    pub fn scrub(&mut self, ecc: bool) -> bool {
        let mut due = false;
        if ecc {
            for (_, &(mask, strikes)) in self.corruption.iter() {
                if strikes >= 2 || mask.count_ones() >= 2 {
                    due = true;
                }
            }
            self.corruption.clear();
        } else {
            // Commit flips to the data so output comparison sees them.
            let corruption = std::mem::take(&mut self.corruption);
            for (w, (mask, _)) in corruption {
                let base = (w * 4) as usize;
                if base + 4 <= self.data.len() {
                    let stored = word_at(&self.data, base) ^ mask;
                    self.data[base..base + 4].copy_from_slice(&stored.to_le_bytes());
                }
            }
        }
        due
    }
}

/// Per-block shared memory (a small bounds-checked scratchpad with the same
/// strike semantics as global memory).
#[derive(Clone, Debug, PartialEq)]
pub struct SharedMemory {
    inner: GlobalMemory,
}

impl SharedMemory {
    /// Allocate the block's static shared memory.
    pub fn new(bytes: u32) -> Self {
        SharedMemory { inner: GlobalMemory::new(bytes) }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u32 {
        self.inner.len()
    }

    /// True if no shared memory was allocated.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Device read (see [`GlobalMemory::device_read`]).
    pub fn device_read(
        &mut self,
        addr: u32,
        len: u32,
        ecc: bool,
    ) -> Result<(u64, bool), MemoryError> {
        self.inner.device_read(addr, len, ecc)
    }

    /// Device write (see [`GlobalMemory::device_write`]).
    pub fn device_write(&mut self, addr: u32, len: u32, value: u64) -> Result<(), MemoryError> {
        self.inner.device_write(addr, len, value)
    }

    /// Record a strike (see [`GlobalMemory::strike_bit`]).
    pub fn strike_bit(&mut self, byte_addr: u32, bit: u32) {
        self.inner.strike_bit(byte_addr, bit);
    }

    /// Number of words currently carrying latent corruption.
    pub fn corrupted_words(&self) -> usize {
        self.inner.corrupted_words()
    }

    /// The space as a flat one, for the word-level accessors.
    pub(crate) fn flat_mut(&mut self) -> &mut GlobalMemory {
        &mut self.inner
    }

    /// The space as a flat one, for the word-level accessors.
    pub(crate) fn flat(&self) -> &GlobalMemory {
        &self.inner
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn host_roundtrips() {
        let mut m = GlobalMemory::new(64);
        m.write_u32_host(0, 0xDEADBEEF).unwrap();
        assert_eq!(m.read_u32_host(0).unwrap(), 0xDEADBEEF);
        m.write_f32_host(4, 1.5).unwrap();
        assert_eq!(m.read_f32_host(4).unwrap(), 1.5);
        m.write_f64_host(8, -2.25).unwrap();
        assert_eq!(m.read_f64_host(8).unwrap(), -2.25);
        m.write_u16_host(16, 0x3C00).unwrap();
        assert_eq!(m.read_u16_host(16).unwrap(), 0x3C00);
    }

    #[test]
    fn device_bounds_checked() {
        let mut m = GlobalMemory::new(8);
        assert!(m.device_read(8, 4, false).is_err());
        assert!(m.device_read(5, 4, false).is_err());
        assert!(m.device_write(6, 4, 0).is_err());
        assert!(m.device_read(4, 4, false).is_ok());
    }

    #[test]
    fn single_bit_flip_no_ecc_corrupts_data() {
        let mut m = GlobalMemory::new(8);
        m.write_u32_host(0, 0b1000).unwrap();
        m.strike_bit(0, 0);
        let (v, due) = m.device_read(0, 4, false).unwrap();
        assert_eq!(v, 0b1001);
        assert!(!due);
        // The corruption persisted into the backing store.
        assert_eq!(m.read_u32_host(0).unwrap(), 0b1001);
    }

    #[test]
    fn single_bit_flip_with_ecc_corrected() {
        let mut m = GlobalMemory::new(8);
        m.write_u32_host(0, 0xFF).unwrap();
        m.strike_bit(0, 3);
        let (v, due) = m.device_read(0, 4, true).unwrap();
        assert_eq!(v, 0xFF);
        assert!(!due);
        assert_eq!(m.corrupted_words(), 0); // scrubbed
    }

    #[test]
    fn double_bit_flip_with_ecc_is_due() {
        let mut m = GlobalMemory::new(8);
        m.strike_bit(0, 3);
        m.strike_bit(1, 7); // same 32-bit word, different bit (bit 15)
        let (_, due) = m.device_read(0, 4, true).unwrap();
        assert!(due);
    }

    #[test]
    fn write_clears_latent_corruption() {
        let mut m = GlobalMemory::new(8);
        m.strike_bit(0, 3);
        m.device_write(0, 4, 42).unwrap();
        let (v, due) = m.device_read(0, 4, false).unwrap();
        assert_eq!(v, 42);
        assert!(!due);
    }

    #[test]
    fn strike_outside_allocation_is_ignored() {
        let mut m = GlobalMemory::new(4);
        m.strike_bit(100, 0);
        assert_eq!(m.corrupted_words(), 0);
    }

    #[test]
    fn scrub_detects_double_bit() {
        let mut m = GlobalMemory::new(8);
        m.strike_bit(4, 0);
        m.strike_bit(4, 1);
        assert!(m.scrub(true));
        let mut m = GlobalMemory::new(8);
        m.strike_bit(4, 0);
        assert!(!m.scrub(true));
    }

    #[test]
    fn scrub_without_ecc_commits_flips() {
        let mut m = GlobalMemory::new(8);
        m.write_u32_host(4, 0).unwrap();
        m.strike_bit(4, 5);
        assert!(!m.scrub(false));
        assert_eq!(m.read_u32_host(4).unwrap(), 32);
    }

    #[test]
    fn sixty_four_bit_read_spans_two_words() {
        let mut m = GlobalMemory::new(16);
        m.write_u32_host(0, 1).unwrap();
        m.write_u32_host(4, 2).unwrap();
        m.strike_bit(4, 0); // flips low bit of the high word
        let (v, _) = m.device_read(0, 8, false).unwrap();
        assert_eq!(v, ((3u64) << 32) | 1);
    }

    #[test]
    fn shared_memory_delegates() {
        let mut s = SharedMemory::new(16);
        assert_eq!(s.len(), 16);
        s.device_write(0, 4, 7).unwrap();
        assert_eq!(s.device_read(0, 4, false).unwrap().0, 7);
        s.strike_bit(0, 4);
        assert_eq!(s.device_read(0, 4, false).unwrap().0, 7 ^ 16);
        assert!(s.device_read(13, 4, false).is_err());
    }
}
