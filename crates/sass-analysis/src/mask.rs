//! Statically-proven masked injection sites.
//!
//! An architectural fault injected into the *destination* of an
//! instruction can only matter if some later read observes the corrupted
//! bits. Bit-level liveness ([`crate::dataflow::liveness`]) computes, for
//! every instruction, the mask of destination bits that any path may
//! still observe; a flip entirely outside that mask provably leaves every
//! subsequent read — and therefore every memory write, address, branch
//! and the final output — bit-identical to the golden run. Such a trial
//! is **Masked** without simulating it.
//!
//! Soundness argument (also in DESIGN.md): the faulty run is identical to
//! the golden run up to the injection instant, so the statically-derived
//! masks (which hold on *all* paths) apply to the dynamic state at that
//! instant; after it, an unobservable flip induces no architectural
//! difference, and outcome classification compares output memory only.
//!
//! The oracle covers:
//!
//! * instruction-output flips/replacements on the *scalar* GPR-writing
//!   ops (the engine applies those faults in its 32/64-bit write-back
//!   path). Warp-level MMA/SHFL corruptions use different machinery and
//!   are never pruned;
//! * register-file bit flips, via the timing-independent union of
//!   observed read masks per register ([`crate::dataflow::Liveness::read_union`]):
//!   a register-file bit no instruction ever observes cannot propagate,
//!   whenever it is flipped.
//!
//! This layer alone never prunes address, predicate or PC faults; the
//! value-flow verdicts ([`crate::flow`] + [`crate::verdict`]) extend the
//! pruned set to predicate writers (taint that reaches no sink) and
//! resolve some single-bit output/address flips as proven DUEs. PC
//! faults remain simulate-only.

use crate::cfg::Cfg;
use crate::dataflow;
use gpu_arch::Kernel;

/// Per-kernel static masking facts.
pub struct StaticMasks {
    /// Observed-bit mask of the destination after each write (low 32 =
    /// `dst`, high 32 = `dst.pair_hi()` for pair writers).
    dst_observed: Vec<u64>,
    /// Pruning-eligible sites: reachable scalar GPR writers (everything
    /// the engine's `W32`/`W64` write-back path covers).
    site: Vec<bool>,
    writes_pair: Vec<bool>,
    read_union: [u32; dataflow::TRACKED_REGS],
}

impl StaticMasks {
    /// Run the analyses over `kernel`, given its CFG.
    pub fn compute(kernel: &Kernel, cfg: &Cfg) -> StaticMasks {
        let lv = dataflow::liveness(kernel, cfg);
        let decoded = kernel.decoded();
        let mut site = Vec::with_capacity(kernel.len());
        let mut writes_pair = Vec::with_capacity(kernel.len());
        for pc in 0..kernel.len() {
            // A scalar GPR writer in the predecode layer's terms: the
            // warp-level MMA/SHFL corruptions use different engine
            // machinery, so only non-warp-sync writers are prunable.
            let m = decoded.meta(pc as u32);
            let scalar_writer = m.writes_gpr() && !m.is_warp_sync;
            site.push(scalar_writer && cfg.reachable[cfg.block_of[pc] as usize]);
            writes_pair.push(m.writes_pair);
        }
        StaticMasks { dst_observed: lv.dst_observed, site, writes_pair, read_union: lv.read_union }
    }

    /// Observed-bit mask of the destination written at `pc`.
    pub fn dst_observed(&self, pc: u32) -> u64 {
        self.dst_observed[pc as usize]
    }

    /// Is `pc` a pruning-eligible injection site?
    pub fn prunable_site(&self, pc: u32) -> bool {
        self.site[pc as usize]
    }

    /// Is XOR-ing `mask` into the output of the instruction at `pc`
    /// provably masked? (For 32-bit destinations only the low word of the
    /// mask lands, matching the engine's write-back.)
    pub fn output_flip_masked(&self, pc: u32, mask: u64) -> bool {
        let pc = pc as usize;
        let effective = if self.writes_pair[pc] { mask } else { mask & 0xFFFF_FFFF };
        self.site[pc] && effective & self.dst_observed[pc] == 0
    }

    /// Is *replacing* the output of the instruction at `pc` (with any
    /// value) provably masked? Requires the whole destination to be
    /// unobserved.
    pub fn output_replace_masked(&self, pc: u32) -> bool {
        self.site[pc as usize] && self.dst_observed[pc as usize] == 0
    }

    /// Is flipping `mask` bits of architectural register `reg` (at any
    /// instant) provably masked? `regs_per_thread` mirrors the engine's
    /// register-index wrap for out-of-footprint indices.
    pub fn register_flip_masked(&self, reg: u8, regs_per_thread: u16, mask: u32) -> bool {
        let r = (reg as usize).min(254) % usize::from(regs_per_thread.max(1));
        mask & self.read_union[r] == 0
    }

    /// Static ACE fraction: of all destination bits written by (reachable,
    /// scalar) GPR-writing instructions, the fraction some path may
    /// observe. The static analogue of the dynamically-measured AVF —
    /// unweighted by execution counts, so it reflects the *code*, not the
    /// trip counts.
    pub fn ace_fraction(&self) -> f64 {
        let mut observed = 0u64;
        let mut width = 0u64;
        for pc in 0..self.site.len() {
            if !self.site[pc] {
                continue;
            }
            observed += u64::from(self.dst_observed[pc].count_ones());
            width += if self.writes_pair[pc] { 64 } else { 32 };
        }
        if width == 0 {
            0.0
        } else {
            observed as f64 / width as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisContext, KernelAnalysis};
    use gpu_arch::{KernelBuilder, MemWidth, Operand, Reg};

    fn masks(k: &Kernel) -> StaticMasks {
        KernelAnalysis::compute(k, &AnalysisContext::default()).masks
    }

    fn k_with_dead_and_live() -> Kernel {
        let mut b = KernelBuilder::new("m");
        b.ldp(Reg(2), 0);
        b.mov(Reg(0), Operand::Imm(7)); // live: stored
        b.mov(Reg(5), Operand::Imm(9)); // dead
        b.stg(MemWidth::W32, Reg(2), 0, Reg(0));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn dead_destination_prunes_and_live_does_not() {
        let m = masks(&k_with_dead_and_live());
        assert!(m.output_flip_masked(2, 1 << 13), "dead MOV output flip");
        assert!(m.output_replace_masked(2), "dead MOV output replace");
        assert!(!m.output_flip_masked(1, 1 << 13), "stored MOV is observed");
        assert!(!m.output_replace_masked(1));
    }

    #[test]
    fn half_observed_value_prunes_upper_bits_only() {
        let mut b = KernelBuilder::new("h");
        b.ldp(Reg(2), 0);
        b.ldg(MemWidth::W16, Reg(0), Reg(2), 0);
        b.hadd(Reg(1), Operand::Reg(Reg(0)), Operand::Reg(Reg(0)));
        b.stg(MemWidth::W16, Reg(2), 0, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        let m = masks(&k);
        assert!(m.output_flip_masked(1, 1 << 20), "upper half of W16 load is dead");
        assert!(!m.output_flip_masked(1, 1 << 3), "lower half is consumed");
        // Register-file view: R0 and R1 are only ever read as halves.
        assert!(m.register_flip_masked(0, k.regs_per_thread, 0xFFFF_0000));
        assert!(!m.register_flip_masked(0, k.regs_per_thread, 0x0000_8000));
    }

    #[test]
    fn warp_ops_are_never_prunable() {
        let mut b = KernelBuilder::new("w");
        b.hmma(Reg(0), Reg(4), Reg(8));
        b.exit();
        let k = b.build().unwrap();
        let m = masks(&k);
        assert!(!m.prunable_site(0));
        assert!(!m.output_flip_masked(0, 1));
    }

    #[test]
    fn ace_fraction_reflects_dead_code() {
        let m = masks(&k_with_dead_and_live());
        let ace = m.ace_fraction();
        assert!(ace > 0.0 && ace < 1.0, "ace={ace}");
    }
}
