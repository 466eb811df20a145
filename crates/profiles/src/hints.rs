//! The static-hint database.

use sdbp_trace::{BranchAddr, PcMap};
use std::fmt;

/// The set of branches selected for static prediction, with their hints.
///
/// This models the two hint bits the paper assumes in the ISA (after the
/// IA-64 encoding): membership in the database is the "use static
/// prediction" meta-bit, and the stored boolean is the predicted direction.
/// In a deployment these bits would be rewritten into the binary by an
/// executable optimizer such as Spike.
///
/// # Examples
///
/// ```
/// use sdbp_profiles::HintDatabase;
/// use sdbp_trace::BranchAddr;
///
/// let mut db = HintDatabase::new();
/// db.insert(BranchAddr(0x100), true);
/// assert_eq!(db.get(BranchAddr(0x100)), Some(true));
/// assert_eq!(db.get(BranchAddr(0x104)), None, "not statically predicted");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintDatabase {
    hints: PcMap<bool>,
}

impl HintDatabase {
    /// Creates an empty database (pure dynamic prediction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the static hint of a branch, returning any previous hint.
    pub fn insert(&mut self, pc: BranchAddr, taken: bool) -> Option<bool> {
        self.hints.insert(pc, taken)
    }

    /// The hint of a branch: `Some(direction)` when statically predicted.
    pub fn get(&self, pc: BranchAddr) -> Option<bool> {
        self.hints.get(&pc).copied()
    }

    /// Whether the branch is statically predicted.
    pub fn contains(&self, pc: BranchAddr) -> bool {
        self.hints.contains_key(&pc)
    }

    /// Removes a branch's hint.
    pub fn remove(&mut self, pc: BranchAddr) -> Option<bool> {
        self.hints.remove(&pc)
    }

    /// Number of statically predicted branches.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether no branch is statically predicted.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }

    /// Iterates over `(pc, hint)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, bool)> + '_ {
        self.hints.iter().map(|(pc, t)| (*pc, *t))
    }

    /// Keeps only hints for which `keep` returns `true` (the database-side
    /// primitive behind cross-training filters).
    pub fn retain<F: FnMut(BranchAddr, bool) -> bool>(&mut self, mut keep: F) {
        self.hints.retain(|pc, taken| keep(*pc, *taken));
    }

    /// Serializes to the text format `"<hex pc> T|N"` per line, sorted by
    /// address (stable for diffing databases between runs).
    pub fn to_text(&self) -> String {
        let mut entries: Vec<(BranchAddr, bool)> = self.iter().collect();
        entries.sort_unstable_by_key(|(pc, _)| *pc);
        let mut out = String::new();
        for (pc, taken) in entries {
            out.push_str(&format!("{:x} {}\n", pc.0, if taken { 'T' } else { 'N' }));
        }
        out
    }

    /// Parses the format written by [`HintDatabase::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut db = Self::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let pc = parts
                .next()
                .and_then(|p| u64::from_str_radix(p.trim_start_matches("0x"), 16).ok())
                .ok_or_else(|| format!("line {}: bad pc", idx + 1))?;
            let taken = match parts.next() {
                Some("T") | Some("t") => true,
                Some("N") | Some("n") => false,
                _ => return Err(format!("line {}: bad hint", idx + 1)),
            };
            db.insert(BranchAddr(pc), taken);
        }
        Ok(db)
    }
}

impl fmt::Display for HintDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} static hints", self.hints.len())
    }
}

impl FromIterator<(BranchAddr, bool)> for HintDatabase {
    fn from_iter<T: IntoIterator<Item = (BranchAddr, bool)>>(iter: T) -> Self {
        let mut db = Self::new();
        for (pc, taken) in iter {
            db.insert(pc, taken);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut db = HintDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.insert(BranchAddr(0x10), true), None);
        assert_eq!(db.insert(BranchAddr(0x10), false), Some(true));
        assert_eq!(db.get(BranchAddr(0x10)), Some(false));
        assert!(db.contains(BranchAddr(0x10)));
        assert_eq!(db.remove(BranchAddr(0x10)), Some(false));
        assert!(db.is_empty());
    }

    #[test]
    fn retain_filters() {
        let mut db: HintDatabase = [
            (BranchAddr(0x10), true),
            (BranchAddr(0x20), false),
            (BranchAddr(0x30), true),
        ]
        .into_iter()
        .collect();
        db.retain(|_, taken| taken);
        assert_eq!(db.len(), 2);
        assert!(!db.contains(BranchAddr(0x20)));
    }

    #[test]
    fn text_roundtrip_is_sorted_and_stable() {
        let db: HintDatabase = [(BranchAddr(0x200), false), (BranchAddr(0x10), true)]
            .into_iter()
            .collect();
        let text = db.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, ["10 T", "200 N"]);
        let back = HintDatabase::from_text(&text).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn from_text_tolerates_comments_and_rejects_garbage() {
        let db = HintDatabase::from_text("# hints\n\n10 T\n").unwrap();
        assert_eq!(db.len(), 1);
        assert!(HintDatabase::from_text("zz T\n").is_err());
        assert!(HintDatabase::from_text("10 X\n").is_err());
        assert!(HintDatabase::from_text("10\n").is_err());
    }

    #[test]
    fn display_reports_count() {
        let db: HintDatabase = [(BranchAddr(0x10), true)].into_iter().collect();
        assert_eq!(db.to_string(), "1 static hints");
    }
}
