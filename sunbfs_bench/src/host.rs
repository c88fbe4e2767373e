//! The box, not the program: hypervisor steal per one-second window,
//! peak resident memory, and a fixed calibration spin.
//!
//! Every timed loop is cut into one-second windows. A sample belongs to
//! the window it completed in; windows whose steal share is above
//! [`STEAL_LIMIT`] are left out of every timing metric. A loop short of
//! clean windows runs on for a bounded time ([`EXTEND`]); if it still
//! has too few it keeps the least stolen-from ones it has and says so
//! (`host.noisy`), it never passes silently.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Steal share above which a window is excluded from timing metrics.
/// On the box this was written on, two windows in three of a quiet
/// spell are at or below 1 %, and from 2 % up the 90th percentile of a
/// 3.6 ms operation is visibly (10-20 %) off.
pub const STEAL_LIMIT: f64 = 0.02;

/// A loop that has too few clean windows after its nominal time keeps
/// going, up to this multiple of it. Steal comes in bursts that last
/// from 20 s to several minutes and multiply latencies by up to ten, so
/// no statistic of a run inside one is worth reporting: the loop waits
/// the burst out (15 s nominal: 120 s at most, which keeps a whole run
/// under the 180 s a run may take).
pub const EXTEND: f64 = 8.0;

/// Clean windows a loop of `nominal_s` seconds needs before its dirty
/// ones may be dropped: two thirds of its nominal length (10 of 15).
pub fn needed_windows(nominal_s: f64) -> usize {
    ((nominal_s * 2.0 / 3.0).ceil() as usize).max(1)
}

/// One sampling window, ending `end_s` seconds after the loop started
/// (it starts where the previous one ended).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub end_s: f64,
    pub steal_share: f64,
}

/// `(steal, total)` jiffies summed over all CPUs, from the first line
/// of `/proc/stat`; `None` where the file is missing or unreadable, in
/// which case every window counts as clean.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let v: Vec<u64> = fields.take(8).filter_map(|f| f.parse().ok()).collect();
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Steal share of the CPU time between two readings.
fn steal_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((steal0, all0)), Some((steal1, all1))) if all1 > all0 => {
            (steal1 - steal0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    }
}

/// Run `f`; return its result, its wall seconds and the steal share of
/// the box while it ran.
pub fn timed_with_steal<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = cpu_jiffies();
    let t = Instant::now();
    let out = f();
    let seconds = t.elapsed().as_secs_f64();
    (out, seconds, steal_between(before, cpu_jiffies()))
}

/// Background reader of `/proc/stat`, one reading per second, for one
/// timed loop.
pub struct StealSampler {
    t0: Instant,
    nominal_s: f64,
    stop: Arc<AtomicBool>,
    clean: Arc<AtomicUsize>,
    /// The windows, and peak memory when the nominal time was over.
    handle: JoinHandle<(Vec<Window>, f64)>,
}

impl StealSampler {
    /// Start sampling a loop meant to run `nominal_s` seconds; window
    /// boundaries are whole seconds after `t0`.
    pub fn start(t0: Instant, nominal_s: f64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let clean = Arc::new(AtomicUsize::new(0));
        let (flag, counter) = (Arc::clone(&stop), Arc::clone(&clean));
        let handle = std::thread::spawn(move || {
            let mut windows = Vec::new();
            let mut last = cpu_jiffies();
            let mut peak_rss_mb = None;
            loop {
                let next = Duration::from_secs(windows.len() as u64 + 1);
                while !flag.load(Ordering::SeqCst) {
                    match next.checked_sub(t0.elapsed()) {
                        Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                        _ => break,
                    }
                }
                let now = cpu_jiffies();
                let steal_share = steal_between(last, now);
                last = now;
                windows.push(Window {
                    end_s: t0.elapsed().as_secs_f64(),
                    steal_share,
                });
                if steal_share <= STEAL_LIMIT {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                let stopping = flag.load(Ordering::SeqCst);
                // Memory is read when the nominal time is over, not when
                // the loop ends: what the program and the harness keep
                // per operation must not make a loop that ran on through
                // a steal burst look bigger than one that did not.
                if peak_rss_mb.is_none() && (stopping || t0.elapsed().as_secs_f64() >= nominal_s) {
                    peak_rss_mb = Some(self::peak_rss_mb());
                }
                if stopping {
                    return (windows, peak_rss_mb.unwrap_or(0.0));
                }
            }
        });
        StealSampler {
            t0,
            nominal_s,
            stop,
            clean,
            handle,
        }
    }

    /// Has the loop run long enough? Yes once its nominal time is over
    /// and it has the clean windows it needs, or [`EXTEND`] times its
    /// nominal time is over whatever the windows look like.
    pub fn enough(&self) -> bool {
        let elapsed = self.t0.elapsed().as_secs_f64();
        elapsed >= self.nominal_s
            && (self.clean.load(Ordering::SeqCst) >= needed_windows(self.nominal_s)
                || elapsed >= self.nominal_s * EXTEND)
    }

    /// Stop sampling; the last window is closed at the moment of the
    /// call, so every sample taken so far falls inside some window.
    pub fn finish(self) -> Gate {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.thread().unpark();
        let (windows, peak_rss_mb) = self.handle.join().expect("steal sampler never panics");
        Gate {
            peak_rss_mb,
            ..Gate::new(windows, self.nominal_s)
        }
    }
}

/// Which windows of a loop count towards timing metrics.
#[derive(Clone, Debug)]
pub struct Gate {
    windows: Vec<Window>,
    keep: Vec<bool>,
    /// True when too few windows were clean, and the least stolen-from
    /// ones were kept in their place.
    pub noisy: bool,
    /// Peak resident set of the process (`VmHWM`, MiB) when the loop's
    /// nominal time was over; 0.0 where it cannot be read.
    pub peak_rss_mb: f64,
}

impl Gate {
    /// Apply the gating rule to the windows of a loop meant to run
    /// `nominal_s` seconds.
    pub fn new(windows: Vec<Window>, nominal_s: f64) -> Self {
        let clean: Vec<bool> = windows
            .iter()
            .map(|w| w.steal_share <= STEAL_LIMIT)
            .collect();
        let needed = needed_windows(nominal_s);
        let noisy = clean.iter().filter(|&&c| c).count() < needed;
        let keep = if noisy {
            // The best the box gave: as many windows as a quiet run
            // would have had, least steal first.
            let mut by_steal: Vec<usize> = (0..windows.len()).collect();
            by_steal.sort_by(|&a, &b| windows[a].steal_share.total_cmp(&windows[b].steal_share));
            let mut keep = vec![false; windows.len()];
            for &i in by_steal.iter().take(needed) {
                keep[i] = true;
            }
            keep
        } else {
            clean
        };
        Gate {
            windows,
            keep,
            noisy,
            peak_rss_mb: 0.0,
        }
    }

    /// The window a sample completed `done_s` seconds into the loop
    /// belongs to. One that completes after the last reading (a reply
    /// in the settle time of a serving loop) belongs to the last window.
    fn window_of(&self, done_s: f64) -> usize {
        let i = self.windows.partition_point(|w| w.end_s < done_s);
        i.min(self.windows.len() - 1)
    }

    /// Does a sample completed `done_s` seconds into the loop count?
    pub fn keeps(&self, done_s: f64) -> bool {
        self.keep[self.window_of(done_s)]
    }

    /// Median over the kept windows of the rate in each: the summed
    /// `amount` of the samples (`(done_s, amount, seconds)`) completed
    /// in the window over their summed `seconds` — or, with
    /// `per_window_second`, over the window's length (a window nothing
    /// completed in then has rate 0; otherwise it is skipped). A median
    /// of windows, unlike a total over a total, does not move with one
    /// bad second. Returns the rate and the windows behind it.
    pub fn median_rate(
        &self,
        samples: &[(f64, f64, f64)],
        per_window_second: bool,
    ) -> (f64, usize) {
        let mut amount = vec![0.0; self.windows.len()];
        let mut seconds = vec![0.0; self.windows.len()];
        for &(done_s, a, s) in samples {
            let w = self.window_of(done_s);
            amount[w] += a;
            seconds[w] += s;
        }
        let mut start = 0.0;
        let mut rates = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            let time = if per_window_second {
                w.end_s - start
            } else {
                seconds[i]
            };
            if self.keep[i] && time > 0.0 {
                rates.push(amount[i] / time);
            }
            start = w.end_s;
        }
        (crate::stats::median(&rates), rates.len())
    }

    /// When the last window ended, seconds into the loop.
    pub fn end_s(&self) -> f64 {
        self.windows.last().map_or(0.0, |w| w.end_s)
    }

    /// Windows at or below [`STEAL_LIMIT`].
    pub fn clean_windows(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.steal_share <= STEAL_LIMIT)
            .count()
    }

    /// Time-weighted steal share over the whole loop.
    pub fn steal_share(&self) -> f64 {
        let mut start = 0.0;
        let mut stolen = 0.0;
        for w in &self.windows {
            stolen += w.steal_share * (w.end_s - start);
            start = w.end_s;
        }
        if start > 0.0 {
            stolen / start
        } else {
            0.0
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0.0 where
/// `/proc/self/status` is unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed single-thread spin — a dependent multiply-add chain, each
/// step hidden from the optimizer so none can be folded away: how fast
/// this box runs right now, ms.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(steal: &[f64]) -> Vec<Window> {
        steal
            .iter()
            .enumerate()
            .map(|(i, &s)| Window {
                end_s: (i + 1) as f64,
                steal_share: s,
            })
            .collect()
    }

    #[test]
    fn cpu_line_gives_steal_and_total() {
        let (steal, total) = parse_cpu_line("cpu  10 1 5 100 2 0 1 7 3 0").unwrap();
        assert_eq!(steal, 7);
        assert_eq!(total, 126);
        assert!(parse_cpu_line("cpu0 1 2 3").is_none());
        assert!(parse_cpu_line("intr 5").is_none());
        assert_eq!(steal_between(Some((7, 126)), Some((17, 226))), 0.1);
        assert_eq!(steal_between(None, Some((17, 226))), 0.0);
    }

    #[test]
    fn dirty_windows_are_dropped_when_enough_clean_ones_remain() {
        let mut steal = vec![0.01; 15];
        steal[3] = 0.30;
        steal[9] = 0.03;
        let gate = Gate::new(windows(&steal), 15.0);
        assert!(!gate.noisy);
        assert_eq!(gate.clean_windows(), 13);
        // Samples belong to the window they completed in: (3, 4] is dirty.
        assert!(gate.keeps(3.0));
        assert!(!gate.keeps(3.5));
        assert!(!gate.keeps(4.0));
        assert!(gate.keeps(4.01));
        assert!(!gate.keeps(9.5));
        // After the last reading: the last window.
        assert!(gate.keeps(15.7));
    }

    #[test]
    fn too_few_clean_windows_keep_the_least_stolen_and_say_noisy() {
        let mut steal = vec![0.20; 25];
        for s in &mut steal[..9] {
            *s = 0.0;
        }
        steal[20] = 0.10;
        let gate = Gate::new(windows(&steal), 15.0);
        assert!(gate.noisy);
        assert_eq!(gate.clean_windows(), 9);
        // Ten windows are kept: the nine clean ones and the next best.
        assert_eq!((0..25).filter(|&i| gate.keeps(i as f64 + 0.5)).count(), 10);
        assert!(gate.keeps(8.5));
        assert!(gate.keeps(20.5));
        assert!(!gate.keeps(15.5));
        steal[9] = 0.0;
        assert!(!Gate::new(windows(&steal), 15.0).noisy);
    }

    #[test]
    fn the_rate_is_the_median_of_the_kept_windows() {
        let mut steal = vec![0.0; 6];
        steal[1] = 0.5;
        let gate = Gate::new(windows(&steal), 6.0);
        // (done_s, amount, seconds): windows 0..6 hold 10, 90 (dirty),
        // 12, nothing, 40 and 14 units.
        let samples = [
            (0.2, 4.0, 0.1),
            (0.9, 6.0, 0.1),
            (1.5, 90.0, 0.9),
            (2.5, 12.0, 0.25),
            (4.5, 40.0, 0.5),
            (5.5, 14.0, 0.5),
            (7.0, 0.0, 0.5), // after the last reading: the last window
        ];
        // Per second of window: 10, 12, 0, 40, 14 -> median 12.
        assert_eq!(gate.median_rate(&samples, true), (12.0, 5));
        // Per second of the samples' own time: 50, 48, 80, 14 -> 49.
        assert_eq!(gate.median_rate(&samples, false), (49.0, 4));
    }

    #[test]
    fn a_loop_needs_two_thirds_of_its_nominal_windows_clean() {
        assert_eq!(needed_windows(15.0), 10);
        assert_eq!(needed_windows(5.0), 4);
        assert_eq!(needed_windows(2.0), 2);
        assert_eq!(needed_windows(0.1), 1);
    }

    #[test]
    fn steal_share_is_time_weighted() {
        let w = vec![
            Window {
                end_s: 1.0,
                steal_share: 0.10,
            },
            Window {
                end_s: 1.5,
                steal_share: 0.40,
            },
        ];
        assert!((Gate::new(w, 1.0).steal_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sampler_covers_the_whole_loop_and_stops_at_its_nominal_time() {
        let t0 = Instant::now();
        let sampler = StealSampler::start(t0, 0.02);
        assert!(!sampler.enough());
        while !sampler.enough() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let done = t0.elapsed().as_secs_f64();
        // No window has closed yet, so only the extension limit ends it.
        assert!(done >= 0.02 * EXTEND);
        let gate = sampler.finish();
        assert!(gate.end_s() >= done);
        assert!(gate.keeps(done));
        assert!(gate.peak_rss_mb > 0.0);
    }
}
