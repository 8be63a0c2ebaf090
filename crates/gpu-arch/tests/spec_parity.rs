//! The spec layer's equivalence and robustness contracts.
//!
//! 1. **Parity:** every built-in spec compiles field-for-field equal to
//!    the hand-coded model it replaced, frozen here as literal fixtures.
//! 2. **Robustness:** the parser/validator never panics on malformed
//!    input — random mutations of valid specs and arbitrary junk either
//!    validate or produce field-path `ValidationError`s.

#[path = "support/fuzz.rs"]
mod fuzz;

use fuzz::{junk_strategy, structured_junk_strategy};
use gpu_arch::spec::{DeviceRegistry, DeviceSpec, RawSpec, BUILTIN_SPECS};
use gpu_arch::{Architecture, CodeGen, DeviceCaps, DeviceModel, FunctionalUnit};
use proptest::prelude::*;

/// The Tesla K40c of the paper, as it was hand-coded before device specs:
/// 15 SMs x 192 CUDA cores, integer work on the FP32 pipes.
fn k40c() -> DeviceModel {
    use FunctionalUnit::*;
    DeviceModel {
        name: "Tesla K40c".to_string(),
        arch: Architecture::Kepler,
        sms: 15,
        schedulers_per_sm: 4,
        issue_per_scheduler: 2,
        fp32_lanes: 192,
        fp64_lanes: 64,
        int32_lanes: 0,
        fp16_lanes: 0,
        tensor_cores: 0,
        tensor_core_width: 32,
        ldst_units: 32,
        rf_bytes_per_sm: 256 * 1024,
        shared_bytes_per_sm: 48 * 1024,
        max_threads_per_sm: 2048,
        max_warps_per_sm: 64,
        clock_hz: 745e6,
        sram_bit_sensitivity: 10.0,
        ecc_capable: true,
        caps: DeviceCaps {
            sassifi: true,
            default_codegen: CodeGen::Cuda7,
            fig3_reference: "FADD".to_string(),
            bench_units: vec![Fadd, Fmul, Ffma, Iadd, Imul, Imad],
        },
    }
}

/// The Tesla V100 of the paper, as it was hand-coded: 80 SMs of 64 FP32,
/// 64 INT32, 32 FP64 lanes and 8 tensor cores.
fn v100() -> DeviceModel {
    use FunctionalUnit::*;
    DeviceModel {
        name: "Tesla V100".to_string(),
        arch: Architecture::Volta,
        sms: 80,
        schedulers_per_sm: 4,
        issue_per_scheduler: 1,
        fp32_lanes: 64,
        fp64_lanes: 32,
        int32_lanes: 64,
        fp16_lanes: 128,
        tensor_cores: 8,
        tensor_core_width: 32,
        ldst_units: 32,
        rf_bytes_per_sm: 256 * 1024,
        shared_bytes_per_sm: 96 * 1024,
        max_threads_per_sm: 2048,
        max_warps_per_sm: 64,
        clock_hz: 1380e6,
        sram_bit_sensitivity: 1.0,
        ecc_capable: true,
        caps: DeviceCaps {
            sassifi: false,
            default_codegen: CodeGen::Cuda10,
            fig3_reference: "HFMA".to_string(),
            bench_units: vec![
                Hadd, Hmul, Hfma, Fadd, Fmul, Ffma, Dadd, Dmul, Dfma, Iadd, Imul, Imad, Hmma, Fmma,
            ],
        },
    }
}

#[test]
fn builtin_specs_match_hand_coded_models() {
    let reg = DeviceRegistry::builtin();
    let cases: &[(&str, DeviceModel)] = &[
        ("k40c", k40c()),
        ("v100", v100()),
        ("titan-v", DeviceModel { name: "Titan V".to_string(), ecc_capable: false, ..v100() }),
        ("k40c-sim", DeviceModel { name: "Tesla K40c (1-SM sim)".to_string(), sms: 1, ..k40c() }),
        ("v100-sim", DeviceModel { name: "Tesla V100 (1-SM sim)".to_string(), sms: 1, ..v100() }),
    ];
    for (id, oracle) in cases {
        let compiled = reg.model(id).unwrap_or_else(|| panic!("{id} not in registry"));
        assert_eq!(&compiled, oracle, "spec-compiled {id} differs from the hand-coded model");
    }
}

#[test]
fn named_lookup_agrees_with_registry() {
    for id in ["k40c", "v100", "titan-v", "a100", "a100-sim"] {
        assert_eq!(DeviceModel::named(id), DeviceRegistry::builtin().model(id).unwrap());
    }
}

/// A built-in spec with one line mutated (see [`fuzz::mutated`]).
fn mutated_builtin(spec_idx: usize, line_idx: usize, mutation: u8, junk: &str) -> String {
    fuzz::mutated(BUILTIN_SPECS[spec_idx % BUILTIN_SPECS.len()].1, line_idx, mutation, junk)
}

proptest! {
    #[test]
    fn parser_never_panics_on_mutations(
        spec_idx in 0usize..4,
        line_idx in 0usize..200,
        mutation in 0u8..4,
        junk in junk_strategy(40),
    ) {
        let text = mutated_builtin(spec_idx, line_idx, mutation, &junk);
        match DeviceSpec::parse(&text) {
            Ok(spec) => {
                // A surviving spec must still compile to a usable model.
                let model = spec.model();
                prop_assert!(model.sms >= 1);
                prop_assert!(!model.name.is_empty());
            }
            Err(errors) => {
                prop_assert!(!errors.is_empty());
                for e in &errors {
                    prop_assert!(!e.field.is_empty(), "errors must carry a field path");
                    prop_assert!(!e.message.is_empty());
                }
            }
        }
    }

    #[test]
    fn parser_never_panics_on_junk(text in structured_junk_strategy()) {
        // Raw junk: both layers must return errors, never panic.
        let _ = RawSpec::parse(&text);
        let _ = DeviceSpec::parse(&text);
    }
}
