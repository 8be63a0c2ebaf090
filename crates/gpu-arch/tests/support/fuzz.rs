//! Input generators shared by the parser fuzz tests of the device-spec
//! (`gpu-arch`) and cross-section (`beam`) layers, which read the same
//! sectioned `key = value` grammar.

use proptest::prelude::*;

/// Inputs an author of a spec file plausibly produces: `text` with one
/// line dropped, duplicated, its value scrambled to `junk`, or replaced
/// by `junk` (chosen by `mutation`; `line_idx` wraps).
pub fn mutated(text: &str, line_idx: usize, mutation: u8, junk: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let target = line_idx % lines.len();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i == target {
            match mutation % 4 {
                0 => continue, // drop the line
                1 => {
                    out.push(line.to_string());
                    out.push(line.to_string()); // duplicate it
                }
                2 => match line.split_once('=') {
                    // scramble the value
                    Some((k, _)) => out.push(format!("{k}= {junk}")),
                    None => out.push(junk.to_string()),
                },
                _ => out.push(junk.to_string()), // replace wholesale
            }
        } else {
            out.push(line.to_string());
        }
    }
    out.join("\n")
}

/// Printable-ASCII strings (the vendored proptest has no regex-string
/// strategies).
pub fn junk_strategy(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..max_len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

/// Junk with structural characters mixed in, so section headers, `=`
/// signs, and comments appear often enough to exercise every parse arm.
pub fn structured_junk_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b" abc=[]#\n_0.-";
    prop::collection::vec(0usize..CHARSET.len(), 0..400)
        .prop_map(|idx| idx.into_iter().map(|i| CHARSET[i] as char).collect())
}
