//! Per-branch bias profiles.

use sdbp_trace::{BranchAddr, BranchEvent, BranchSource, PcMap, SiteStats};

/// Execution/taken counts per static branch, gathered from one or more runs.
///
/// This is the raw material of every static selection scheme: the paper's
/// *bias* of a branch (`max(taken-rate, 1 - taken-rate)`) and its majority
/// direction both come from here.
///
/// # Examples
///
/// ```
/// use sdbp_profiles::BiasProfile;
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events = [
///     BranchEvent::new(BranchAddr(0x40), true, 0),
///     BranchEvent::new(BranchAddr(0x40), false, 0),
///     BranchEvent::new(BranchAddr(0x40), true, 0),
/// ];
/// let p = BiasProfile::from_source(SliceSource::new(&events));
/// let site = p.site(BranchAddr(0x40)).unwrap();
/// assert_eq!(site.executed, 3);
/// assert!(site.majority_taken());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BiasProfile {
    sites: PcMap<SiteStats>,
}

impl BiasProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one branch execution.
    pub fn record(&mut self, event: &BranchEvent) {
        let s = self.sites.entry(event.pc).or_default();
        s.executed += 1;
        s.taken += u64::from(event.taken);
    }

    /// Profiles an entire source.
    pub fn from_source<S: BranchSource>(source: S) -> Self {
        let mut pass = crate::passes::BiasPass::new();
        sdbp_passes::PassRunner::new().run(source, &mut [&mut pass]);
        pass.into_profile()
    }

    /// Per-site counts, if the branch was observed.
    pub fn site(&self, pc: BranchAddr) -> Option<&SiteStats> {
        self.sites.get(&pc)
    }

    /// Number of distinct branches observed.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over `(pc, stats)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, &SiteStats)> {
        self.sites.iter().map(|(pc, s)| (*pc, s))
    }

    /// Total dynamic branch executions observed.
    pub fn total_executions(&self) -> u64 {
        self.sites.values().map(|s| s.executed).sum()
    }

    /// Merges another profile's counts into this one (the Spike database
    /// accumulate operation).
    pub fn merge(&mut self, other: &BiasProfile) {
        for (pc, stats) in other.iter() {
            self.sites.entry(pc).or_default().merge(stats);
        }
    }

    /// Inserts or replaces the counts of one site (used by the database's
    /// filtering operations and by tests).
    pub fn insert(&mut self, pc: BranchAddr, stats: SiteStats) {
        self.sites.insert(pc, stats);
    }

    /// Removes a site, returning its counts.
    pub fn remove(&mut self, pc: BranchAddr) -> Option<SiteStats> {
        self.sites.remove(&pc)
    }

    /// Serializes to the text format `"<hex pc> <executed> <taken>"` per
    /// line, sorted by address (the on-disk profile-database format used by
    /// the CLI).
    pub fn to_text(&self) -> String {
        let mut entries: Vec<(BranchAddr, &SiteStats)> = self.iter().collect();
        entries.sort_unstable_by_key(|(pc, _)| *pc);
        let mut out = String::new();
        for (pc, stats) in entries {
            out.push_str(&format!("{:x} {} {}\n", pc.0, stats.executed, stats.taken));
        }
        out
    }

    /// Parses the format written by [`BiasProfile::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut profile = Self::new();
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
            let executed = parts
                .next()
                .and_then(|p| p.parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: bad executed count", idx + 1))?;
            let taken = parts
                .next()
                .and_then(|p| p.parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: bad taken count", idx + 1))?;
            if taken > executed {
                return Err(format!("line {}: taken exceeds executed", idx + 1));
            }
            profile.insert(BranchAddr(pc), SiteStats { executed, taken });
        }
        Ok(profile)
    }
}

impl Extend<BranchEvent> for BiasProfile {
    fn extend<T: IntoIterator<Item = BranchEvent>>(&mut self, iter: T) {
        for e in iter {
            self.record(&e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::SliceSource;

    fn ev(pc: u64, taken: bool) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, 0)
    }

    #[test]
    fn records_counts_per_site() {
        let mut p = BiasProfile::new();
        p.extend([ev(0x10, true), ev(0x10, false), ev(0x20, true)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_executions(), 3);
        let s = p.site(BranchAddr(0x10)).unwrap();
        assert_eq!((s.executed, s.taken), (2, 1));
        assert!(p.site(BranchAddr(0x30)).is_none());
    }

    #[test]
    fn from_source_equals_manual_recording() {
        let events = [ev(0x10, true), ev(0x14, false)];
        let a = BiasProfile::from_source(SliceSource::new(&events));
        let mut b = BiasProfile::new();
        b.extend(events);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BiasProfile::new();
        a.extend([ev(0x10, true), ev(0x20, false)]);
        let mut b = BiasProfile::new();
        b.extend([ev(0x10, false), ev(0x30, true)]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let s = a.site(BranchAddr(0x10)).unwrap();
        assert_eq!((s.executed, s.taken), (2, 1));
    }

    #[test]
    fn bias_definition_via_sitestats() {
        let mut p = BiasProfile::new();
        for _ in 0..97 {
            p.record(&ev(0x10, true));
        }
        for _ in 0..3 {
            p.record(&ev(0x10, false));
        }
        let s = p.site(BranchAddr(0x10)).unwrap();
        assert!((s.bias() - 0.97).abs() < 1e-12);
        assert!(s.majority_taken());
    }

    #[test]
    fn text_roundtrip() {
        let mut p = BiasProfile::new();
        p.insert(
            BranchAddr(0x200),
            SiteStats {
                executed: 10,
                taken: 9,
            },
        );
        p.insert(
            BranchAddr(0x10),
            SiteStats {
                executed: 3,
                taken: 0,
            },
        );
        let text = p.to_text();
        assert_eq!(text.lines().next().unwrap(), "10 3 0", "sorted by pc");
        let back = BiasProfile::from_text(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(BiasProfile::from_text("zz 1 1\n").is_err());
        assert!(BiasProfile::from_text("10 x 1\n").is_err());
        assert!(BiasProfile::from_text("10 1\n").is_err());
        assert!(
            BiasProfile::from_text("10 1 2\n").is_err(),
            "taken > executed"
        );
        assert!(BiasProfile::from_text("# just a comment\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn insert_and_remove() {
        let mut p = BiasProfile::new();
        p.insert(
            BranchAddr(0x99),
            SiteStats {
                executed: 10,
                taken: 1,
            },
        );
        assert_eq!(p.len(), 1);
        let removed = p.remove(BranchAddr(0x99)).unwrap();
        assert_eq!(removed.executed, 10);
        assert!(p.is_empty());
    }
}
