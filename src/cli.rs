//! The one knob reader of the example binaries.
//!
//! A graph is sized once, from the command line that launches the job
//! (Graph 500's `graph500_bfs(SCALE, edgefactor)` takes its size the
//! same way), never over the serving protocol. Every binary reads its
//! numeric knobs here, so a knob that is not an unsigned integer or is
//! out of range is refused by name (`knob "scale" must be in 1..=40,
//! got 70`) with exit code 2 — never a silent run of the default value.

use std::ops::RangeInclusive;

use sunbfs_part::Thresholds;
use sunbfs_serve::SessionConfig;

/// Every `u64`: a knob whose range is checked later or not at all.
pub const U64: RangeInclusive<u64> = 0..=u64::MAX;

/// Every value a `u32` holds.
pub const U32: RangeInclusive<u64> = 0..=u32::MAX as u64;

/// Refuse the command line: `error: {detail}` on stderr, exit code 2.
pub fn refuse(detail: impl std::fmt::Display) -> ! {
    eprintln!("error: {detail}");
    std::process::exit(2)
}

/// Numeric knob `name`, given as `raw`, inside `range`.
///
/// # Errors
/// `knob "X" must be an unsigned integer, got "…"` or `knob "X" must be
/// in a..=b, got n`.
pub fn knob(name: &str, raw: &str, range: RangeInclusive<u64>) -> Result<u64, String> {
    let n = raw
        .parse()
        .map_err(|_| format!("knob {name:?} must be an unsigned integer, got {raw:?}"))?;
    in_range(name, n, range)
}

fn in_range(name: &str, n: u64, range: RangeInclusive<u64>) -> Result<u64, String> {
    let (min, max) = (range.start(), range.end());
    let refusal = || format!("knob {name:?} must be in {min}..={max}, got {n}");
    range.contains(&n).then_some(n).ok_or_else(refusal)
}

/// Positional knob `n` of the command line (`default` when it is
/// absent), inside `range`; anything else is [`refuse`]d.
pub fn positional(n: usize, name: &str, default: u64, range: RangeInclusive<u64>) -> u64 {
    std::env::args()
        .nth(n)
        .map_or(Ok(default), |raw| knob(name, &raw, range))
        .unwrap_or_else(|e| refuse(e))
}

/// The session a graph's size knobs ask for, checked in the one place
/// every binary sizes a session: `bfs_server`'s flags,
/// `graph500_runner`'s positional knobs, `soak`'s `--scale` and
/// `--ranks` and `partition_explorer`'s. An out-of-range knob is
/// refused by name; the rest is [`SessionConfig::small`].
///
/// # Errors
/// `knob "scale" must be in 1..=40, got 70`, likewise `ranks`
/// (1..=65536) and the thresholds (`u32`, with `h_threshold` at most
/// `e_threshold`).
pub fn sized_session(scale: u64, ranks: u64, e: u64, h: u64) -> Result<SessionConfig, String> {
    let scale = in_range("scale", scale, 1..=40)?;
    let ranks = in_range("ranks", ranks, 1..=1 << 16)?;
    let e = in_range("e_threshold", e, U32)?;
    let h = in_range("h_threshold", h, U32)?;
    if h > e {
        // Thresholds::new panics on h > e; refuse before constructing.
        return Err(format!(
            "knob \"h_threshold\" ({h}) must not exceed \"e_threshold\" ({e})"
        ));
    }
    Ok(SessionConfig {
        thresholds: Thresholds::new(e as u32, h as u32),
        ..SessionConfig::small(scale as u32, ranks as usize)
    })
}

/// A reader of `--flag [value]` arguments. Iterating yields each
/// argument in turn; [`Flags::value`] and [`Flags::num`] then take the
/// value of the flag just yielded.
pub struct Flags<'a> {
    args: std::iter::Peekable<std::slice::Iter<'a, String>>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Read `args` (the program name already skipped).
    pub fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter().peekable(),
            flag: "",
        }
    }

    /// The current flag's value: the next argument.
    ///
    /// # Errors
    /// `flag --x needs a value` when there is none.
    pub fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        let value = self.args.next().map(String::as_str);
        value.ok_or_else(|| format!("flag {flag} needs a value"))
    }

    /// The current flag's optional value: the next argument unless it
    /// is a flag itself.
    pub fn value_if_any(&mut self) -> Option<&'a str> {
        let value = self.args.next_if(|a| !a.starts_with("--"));
        value.map(String::as_str)
    }

    /// The current flag's value as a numeric [`knob`] named after the
    /// flag (`--batch-max` is `batch_max`).
    ///
    /// # Errors
    /// A missing value or [`knob`]'s refusal.
    pub fn num(&mut self, range: RangeInclusive<u64>) -> Result<u64, String> {
        let name = self.flag.trim_start_matches("--").replace('-', "_");
        knob(&name, self.value()?, range)
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?.as_str();
        Some(self.flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_in_range_and_refuse_by_name() {
        let cfg = sized_session(9, 4, 256, 64).expect("in range");
        assert_eq!((cfg.scale, cfg.mesh.num_ranks()), (9, 4));
        assert_eq!(knob("batch_max", "8", 1..=64), Ok(8));
        for (got, needle) in [
            (knob("scale", "9x", U64).map(drop), "unsigned integer"),
            (knob("scale", "-1", U64).map(drop), "unsigned integer"),
            (sized_session(99, 4, 256, 64).map(drop), "must be in 1..=40"),
            (
                sized_session(9, 0, 256, 64).map(drop),
                "\"ranks\" must be in 1..=65536",
            ),
            (sized_session(9, 4, 8, 16).map(drop), "must not exceed"),
            (
                knob("batch_max", "65", 1..=64).map(drop),
                "\"batch_max\" must be in 1..=64, got 65",
            ),
        ] {
            let detail = got.expect_err(needle);
            assert!(detail.contains(needle), "{detail:?} lacks {needle:?}");
        }
    }

    #[test]
    fn flags_take_values_and_name_their_knobs() {
        let args: Vec<String> = ["--json", "--batch-max", "x", "--path"]
            .map(String::from)
            .into();
        let mut flags = Flags::new(&args);
        assert_eq!(flags.next(), Some("--json"));
        assert_eq!(flags.value_if_any(), None);
        assert_eq!(flags.next(), Some("--batch-max"));
        let refusal = flags.num(1..=64).expect_err("not a number");
        assert!(refusal.starts_with("knob \"batch_max\" must be an unsigned integer"));
        assert_eq!(flags.next(), Some("--path"));
        assert_eq!(flags.value(), Err("flag --path needs a value".into()));
        assert_eq!(flags.next(), None);
    }
}
