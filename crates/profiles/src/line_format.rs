//! The line format the profile text files share: one site per line, its
//! hex pc and then decimal counters, the first of them the execution count,
//! sorted by pc. Blank lines and `#` comment lines are skipped, here and in
//! the hint files [`parse_lines`] also reads.

use sdbp_trace::BranchAddr;
use std::fmt::Write;

/// Renders one line per site, sorted by pc.
pub(crate) fn write_sites<const N: usize>(
    sites: impl Iterator<Item = (BranchAddr, [u64; N])>,
) -> String {
    let mut sites: Vec<_> = sites.collect();
    sites.sort_unstable_by_key(|(pc, _)| *pc);
    let mut out = String::new();
    for (pc, counts) in sites {
        let _ = write!(out, "{:x}", pc.0);
        for count in counts {
            let _ = write!(out, " {count}");
        }
        out.push('\n');
    }
    out
}

/// Parses one site line: `None` for a blank or comment line, otherwise the
/// pc and the counters `names` names, or a message naming the bad field.
/// No counter may exceed the first, the execution count.
pub(crate) fn parse_site<const N: usize>(
    line: &str,
    names: [&str; N],
) -> Option<Result<(BranchAddr, [u64; N]), String>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let mut parts = line.split_whitespace();
    let Some(pc) = parts
        .next()
        .and_then(|p| u64::from_str_radix(p.trim_start_matches("0x"), 16).ok())
    else {
        return Some(Err("bad pc".to_string()));
    };
    let mut counts = [0; N];
    for (count, name) in counts.iter_mut().zip(names) {
        match parts.next().and_then(|p| p.parse().ok()) {
            Some(value) => *count = value,
            None => return Some(Err(format!("bad {name} count"))),
        }
    }
    let executed = counts[0];
    if let Some((count, name)) = counts.iter().zip(names).find(|(c, _)| **c > executed) {
        return Some(Err(format!(
            "{name} count {count} exceeds executed count {executed}"
        )));
    }
    Some(Ok((BranchAddr(pc), counts)))
}

/// Parses every line of `text` with `parse_line`, naming the first bad line.
pub(crate) fn parse_lines<T>(
    text: &str,
    parse_line: impl Fn(&str) -> Option<Result<T, String>>,
) -> Result<Vec<T>, String> {
    text.lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            Some(parse_line(line)?.map_err(|e| format!("line {}: {e}", idx + 1)))
        })
        .collect()
}
