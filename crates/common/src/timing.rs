//! Simulated-time accounting.
//!
//! The reproduction separates *functional* execution (real Rust code
//! moving real bytes at laptop scale) from *performance* projection (a
//! cost model calibrated to the paper's machine constants). Both the
//! chip simulator and the network runtime express cost in [`SimTime`]
//! seconds and aggregate per-category costs in a [`TimeAccumulator`],
//! which the figure harnesses read to print the paper's breakdowns
//! (Figures 10, 11, 15).
//!
//! Accounts are keyed by [`Category`]: a `&'static str`, or two of them
//! joined (an all-reduce's `"comm.allgather." + op`, the network's
//! `"row/" + op`), compared and sorted by the name they print. A
//! collective charges its categories on every call, so building or
//! finding a key allocates nothing, and the joined name is formatted
//! only when a report prints it.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration/instant on the simulated clock, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Construct from a byte volume over a bandwidth in bytes/second.
    #[inline]
    pub fn from_bytes(bytes: u64, bandwidth: f64) -> Self {
        debug_assert!(bandwidth > 0.0);
        SimTime(bytes as f64 / bandwidth)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

/// An accounting key: a static name (`"comm.imbalance"`), or a static
/// prefix joined to a static name (`"comm.allgather." + "H2L"`,
/// `"row/" + "hubsync.EH2EH"`). Nothing is allocated to build or look
/// one up; the joined name is printed only on output.
///
/// Keys compare by their printed name, so a joined key and a plain one
/// that print alike are the same key, and a [`CategoryMap`] iterates in
/// the printed names' byte order.
#[derive(Clone, Copy, Debug)]
pub struct Category {
    prefix: &'static str,
    name: &'static str,
}

impl Category {
    /// The key printed as `name`.
    pub const fn new(name: &'static str) -> Self {
        Category { prefix: "", name }
    }

    /// The key printed as `prefix` followed by `name`.
    pub const fn joined(prefix: &'static str, name: &'static str) -> Self {
        Category { prefix, name }
    }

    /// Whether the printed name starts with `s`.
    pub fn starts_with(&self, s: &str) -> bool {
        let (prefix, name) = (self.prefix.as_bytes(), self.name.as_bytes());
        let s = s.as_bytes();
        let head = s.len().min(prefix.len());
        s[..head] == prefix[..head] && name.starts_with(&s[head..])
    }

    /// Whether `other` is this key through the very same strings.
    fn same_strs(&self, other: &Category) -> bool {
        std::ptr::eq(self.prefix, other.prefix) && std::ptr::eq(self.name, other.name)
    }

    /// The [`CategoryMap`] slot this key's string addresses hash to.
    fn slot(&self) -> usize {
        let (prefix, name) = (self.prefix.as_ptr() as u64, self.name.as_ptr() as u64);
        let mixed = (name ^ prefix.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> (64 - SLOT_BITS)) as usize
    }

    /// This key's printed name against the printed name `prefix` + `name`,
    /// compared a run of common length at a time.
    fn cmp_printed(&self, prefix: &str, name: &str) -> Ordering {
        if self.prefix == prefix {
            return self.name.cmp(name);
        }
        let mut a = [self.prefix.as_bytes(), self.name.as_bytes()];
        let mut b = [prefix.as_bytes(), name.as_bytes()];
        let (mut i, mut j) = (0, 0);
        loop {
            while i < 2 && a[i].is_empty() {
                i += 1;
            }
            while j < 2 && b[j].is_empty() {
                j += 1;
            }
            if i == 2 || j == 2 {
                // The one that ran out first is the lesser.
                return (j == 2).cmp(&(i == 2));
            }
            let k = a[i].len().min(b[j].len());
            match a[i][..k].cmp(&b[j][..k]) {
                Ordering::Equal => (a[i], b[j]) = (&a[i][k..], &b[j][k..]),
                unequal => return unequal,
            }
        }
    }
}

impl From<&'static str> for Category {
    fn from(name: &'static str) -> Self {
        Category::new(name)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix)?;
        f.write_str(self.name)
    }
}

impl Ord for Category {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_printed(other.prefix, other.name)
    }
}

impl PartialOrd for Category {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Category {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Category {}

/// log2 of the slots in a [`CategoryMap`]'s string-address table.
const SLOT_BITS: u32 = 7;

/// Keys a [`CategoryMap`] finds by their strings' addresses; later ones
/// are found by printed name only. Fewer than the slots, so a probe
/// always ends at a free one.
const MAX_SLOTTED: usize = 96;

/// Entries a [`CategoryMap`] makes room for at its first key: a rank's
/// accounts of one traversal fit in one or two allocations.
const FIRST_CAPACITY: usize = 32;

/// FNV-1a of `prefix` then `name`: of the printed name, however it is
/// split.
fn printed_hash(prefix: &str, name: &str) -> u64 {
    let bytes = prefix.bytes().chain(name.bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Values per [`Category`]: the map behind [`TimeAccumulator`] and the
/// network's per-scope collective counters. Entries are kept in the
/// order their keys first came, so an entry never moves; a key charged
/// again through the same strings is found by their addresses, in a
/// small open-addressed table, without reading them. Only a key's first
/// value (which may allocate room for the entry) or a key given through
/// other strings is looked up by printed name, through the entries'
/// hashes of it. Iteration is in printed-name order, sorted when asked
/// for.
#[derive(Clone)]
pub struct CategoryMap<V> {
    entries: Vec<Entry<V>>,
    /// Index + 1 of the entry whose key's strings hash to a slot, 0 for
    /// a free one; linear probing.
    slots: [u8; 1 << SLOT_BITS],
}

/// One key of a [`CategoryMap`] and its value.
#[derive(Clone, Copy)]
struct Entry<V> {
    key: Category,
    /// [`printed_hash`] of `key`: a lookup by printed name reads a key's
    /// text only when the hashes agree.
    hash: u64,
    value: V,
}

impl<V> Default for CategoryMap<V> {
    fn default() -> Self {
        CategoryMap {
            entries: Vec::new(),
            slots: [0; 1 << SLOT_BITS],
        }
    }
}

impl<V: Copy + Default + PartialEq + AddAssign> CategoryMap<V> {
    /// The entry whose key is `key`'s very strings, or the free slot
    /// where they would go.
    fn probe(&self, key: &Category) -> Result<usize, usize> {
        let mut slot = key.slot();
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s if self.entries[usize::from(s) - 1].key.same_strs(key) => {
                    return Ok(usize::from(s) - 1)
                }
                _ => slot = (slot + 1) % self.slots.len(),
            }
        }
    }

    /// The entry printed as `prefix` + `name`, given its
    /// [`printed_hash`].
    fn position(&self, prefix: &str, name: &str, hash: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.hash == hash && e.key.cmp_printed(prefix, name).is_eq())
    }

    /// Add `value` to `key`'s value (from zero when the key is new). A
    /// zero `value` makes no new key: an account lists only what was
    /// charged.
    pub fn add(&mut self, key: Category, value: V) {
        let free = match self.probe(&key) {
            Ok(i) => return self.entries[i].value += value,
            Err(free) => free,
        };
        let hash = printed_hash(key.prefix, key.name);
        if let Some(i) = self.position(key.prefix, key.name, hash) {
            return self.entries[i].value += value;
        }
        if value == V::default() {
            return;
        }
        if self.entries.capacity() == 0 {
            self.entries.reserve(FIRST_CAPACITY);
        }
        self.entries.push(Entry { key, hash, value });
        if self.entries.len() <= MAX_SLOTTED {
            self.slots[free] = self.entries.len() as u8;
        }
    }

    /// The value of the key printed as `prefix` + `name` (zero when
    /// absent).
    pub fn get(&self, prefix: &str, name: &str) -> V {
        let hash = printed_hash(prefix, name);
        self.position(prefix, name, hash)
            .map_or_else(V::default, |i| self.entries[i].value)
    }

    /// All `(key, value)` pairs in printed-name order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, V)> {
        let mut sorted: Vec<_> = self.entries.iter().map(|e| (e.key, e.value)).collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sorted.into_iter()
    }

    /// Add every value of `other` into this map.
    pub fn merge(&mut self, other: &CategoryMap<V>) {
        for e in &other.entries {
            self.add(e.key, e.value);
        }
    }
}

impl<V: PartialEq> PartialEq for CategoryMap<V> {
    fn eq(&self, other: &Self) -> bool {
        let has = |e: &Entry<V>| {
            let same = |o: &Entry<V>| o.key == e.key && o.value == e.value;
            other.entries.iter().any(same)
        };
        self.entries.len() == other.entries.len() && self.entries.iter().all(has)
    }
}

impl<V: Eq> Eq for CategoryMap<V> {}

impl<V: fmt::Debug> fmt::Debug for CategoryMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let printed = self.entries.iter().map(|e| (e.key.to_string(), &e.value));
        let mut printed: Vec<_> = printed.collect();
        printed.sort_by(|a, b| a.0.cmp(&b.0));
        f.debug_map().entries(printed).finish()
    }
}

/// Named per-category simulated-time totals.
///
/// Categories are static keys ("alltoallv", "EH2EH.pull", and the
/// all-reduce halves `"comm.reduce_scatter." + op`); the figure
/// harnesses group and normalize them by printed name. Iteration is in
/// printed-name order, which keeps printed tables stable.
#[derive(Clone, Debug, Default)]
pub struct TimeAccumulator {
    totals: CategoryMap<f64>,
}

impl TimeAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `t` to `category`.
    pub fn add(&mut self, category: impl Into<Category>, t: SimTime) {
        self.totals.add(category.into(), t.0);
    }

    /// Total for the category printed as `category` (0 when absent).
    pub fn get(&self, category: &str) -> SimTime {
        SimTime(self.totals.get("", category))
    }

    /// Sum over all categories, in printed-name order.
    pub fn total(&self) -> SimTime {
        SimTime(self.totals.iter().map(|(_, v)| v).sum())
    }

    /// Sum over categories whose printed name starts with `prefix`.
    pub fn total_with_prefix(&self, prefix: &str) -> SimTime {
        SimTime(
            self.totals
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum(),
        )
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &TimeAccumulator) {
        self.totals.merge(&other.totals);
    }

    /// All `(category, seconds)` pairs in printed-name order.
    pub fn entries(&self) -> impl Iterator<Item = (Category, f64)> + '_ {
        self.totals.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::secs(1.5);
        let b = SimTime::secs(0.5);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn from_bytes_divides_by_bandwidth() {
        assert_eq!(SimTime::from_bytes(100, 50.0).as_secs(), 2.0);
    }

    #[test]
    fn accumulator_adds_and_groups() {
        let mut acc = TimeAccumulator::new();
        acc.add("comm.alltoallv", SimTime::secs(1.0));
        acc.add("comm.alltoallv", SimTime::secs(2.0));
        acc.add("comm.allgather", SimTime::secs(4.0));
        acc.add("compute", SimTime::secs(8.0));
        assert_eq!(acc.get("comm.alltoallv").as_secs(), 3.0);
        assert_eq!(acc.total_with_prefix("comm.").as_secs(), 7.0);
        assert_eq!(acc.total().as_secs(), 15.0);
        // A zero charge makes no key, and leaves a charged one as it is.
        acc.add("idle", SimTime::ZERO);
        acc.add("compute", SimTime::ZERO);
        let keys: Vec<String> = acc.entries().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, ["comm.allgather", "comm.alltoallv", "compute"]);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = TimeAccumulator::new();
        let mut b = TimeAccumulator::new();
        a.add("x", SimTime::secs(1.0));
        b.add("x", SimTime::secs(2.0));
        b.add("y", SimTime::secs(3.0));
        a.merge(&b);
        assert_eq!(a.get("x").as_secs(), 3.0);
        assert_eq!(a.get("y").as_secs(), 3.0);
    }

    #[test]
    fn joined_keys_order_as_their_printed_strings() {
        const PARTS: [&str; 9] = ["", "a", "ab", "abc", "b", "ba", "row/", "row/x", "col/x"];
        let joined = |&p| PARTS.iter().map(move |&n| Category::joined(p, n));
        let keys: Vec<Category> = PARTS.iter().flat_map(joined).collect();
        for (a, b) in keys.iter().flat_map(|a| keys.iter().map(move |b| (a, b))) {
            let (a_printed, b_printed) = (a.to_string(), b.to_string());
            assert_eq!(
                a.cmp(b),
                a_printed.cmp(&b_printed),
                "{a_printed} against {b_printed}"
            );
            assert_eq!(a.starts_with(&b_printed), a_printed.starts_with(&b_printed));
        }
    }

    #[test]
    fn a_map_past_its_address_table_still_finds_every_key() {
        const HEADS: [&str; 12] = [
            "k/", "j/", "i/", "h/", "g/", "f/", "e/", "d/", "c/", "b/", "a/", "l/",
        ];
        const TAILS: [&str; 12] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "x", "y"];
        let keys = || {
            let joined = |&h| TAILS.iter().map(move |&t| Category::joined(h, t));
            HEADS.iter().flat_map(joined)
        };
        let mut map = CategoryMap::default();
        for round in 1..=3u64 {
            keys()
                .enumerate()
                .for_each(|(i, k)| map.add(k, i as u64 * round));
        }
        keys().take(3).for_each(|k| map.add(k, 1));
        for (i, k) in keys().enumerate() {
            let printed = k.to_string();
            assert_eq!(map.get("", &printed), 6 * i as u64 + u64::from(i < 3));
        }
        let printed: Vec<String> = map.iter().map(|(k, _)| k.to_string()).collect();
        let mut want = printed.clone();
        want.sort();
        assert_eq!((printed.len(), &printed), (144, &want));
    }

    #[test]
    fn keys_print_join_and_sort_by_their_printed_name() {
        let mut acc = TimeAccumulator::new();
        acc.add("comm.barrier", SimTime::secs(1.0));
        acc.add(
            Category::joined("comm.allgather.", "H2L"),
            SimTime::secs(2.0),
        );
        acc.add("comm.allgather.H2L", SimTime::secs(4.0));
        acc.add(
            Category::joined("comm.allgather.", "EH2EH"),
            SimTime::secs(8.0),
        );
        acc.add("comm.allgather", SimTime::secs(16.0));
        // A joined half and the plain literal it prints as are one entry.
        let keys: Vec<(String, f64)> = acc.entries().map(|(k, v)| (k.to_string(), v)).collect();
        let want = [
            ("comm.allgather", 16.0),
            ("comm.allgather.EH2EH", 8.0),
            ("comm.allgather.H2L", 6.0),
            ("comm.barrier", 1.0),
        ];
        let want: Vec<(String, f64)> = want.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        assert_eq!(keys, want);
        assert_eq!(acc.get("comm.allgather.H2L").as_secs(), 6.0);
        assert_eq!(acc.total_with_prefix("comm.allgather.").as_secs(), 14.0);
        assert_eq!(acc.total_with_prefix("comm.allgather.H").as_secs(), 6.0);
        assert_eq!(acc.total_with_prefix("comm.b").as_secs(), 1.0);
        // The same order for scope-joined keys.
        let scoped = |p| Category::joined(p, "x");
        let mut ks = [scoped("world/"), scoped("row/"), scoped("col/")];
        ks.sort();
        let printed: Vec<String> = ks.iter().map(ToString::to_string).collect();
        assert_eq!(printed, ["col/x", "row/x", "world/x"]);
        assert_eq!(Category::joined("row/", "x"), Category::new("row/x"));
        assert!(Category::joined("row/", "x") < Category::new("row/xa"));
        assert!(Category::joined("ro", "w/x").starts_with("row/"));
        assert!(!Category::joined("row/", "x").starts_with("row/xy"));
    }
}
