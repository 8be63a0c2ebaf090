//! Fuzz of the `.xsec` cross-section parser: mutated built-in files and
//! structured junk give `Ok` or field-path `ValidationError`s, never a
//! panic.

#[path = "../../gpu-arch/tests/support/fuzz.rs"]
mod fuzz;

use beam::parse_xsec;
use fuzz::{junk_strategy, mutated, structured_junk_strategy};
use proptest::prelude::*;

/// The built-in ground-truth corpus, one file per architecture.
const BUILTIN_XSEC: [&str; 3] = [
    include_str!("../../../specs/devices/k40c.xsec"),
    include_str!("../../../specs/devices/v100.xsec"),
    include_str!("../../../specs/devices/a100.xsec"),
];

#[test]
fn builtin_xsec_files_parse() {
    for text in BUILTIN_XSEC {
        assert!(parse_xsec(text).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn xsec_parser_never_panics_on_mutations(
        file in 0usize..3,
        line_idx in 0usize..200,
        mutation in 0u8..4,
        junk in junk_strategy(40),
    ) {
        let text = mutated(BUILTIN_XSEC[file], line_idx, mutation, &junk);
        match parse_xsec(&text) {
            Ok(xsec) => {
                // A surviving file still holds usable rates.
                prop_assert!(xsec.sram_bit.is_finite() && xsec.sram_bit >= 0.0);
                prop_assert!(xsec.unit.iter().all(|s| s.is_finite() && *s >= 0.0));
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
    fn xsec_parser_never_panics_on_junk(text in structured_junk_strategy()) {
        if let Err(errors) = parse_xsec(&text) {
            prop_assert!(!errors.is_empty());
        }
    }
}
