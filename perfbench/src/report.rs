//! Metric values, percentiles, host facts and the result line.

use std::fmt::Write as _;

/// Windows a tail percentile is taken over; the median of the windows'
/// percentiles is reported (one scheduling hiccup moves one window).
pub const TAIL_WINDOWS: usize = 5;

/// Quantile `q` of `samples`, linear between ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A rate over `marks` = (seconds since `start`, amount), in time order:
/// the median over up to `TAIL_WINDOWS` consecutive groups of marks of
/// Σ amount ÷ the time the group spans (one interference burst moves
/// one window).
pub fn windowed_rate(marks: &[(f64, f64)], start: f64) -> f64 {
    if marks.is_empty() {
        return 0.0;
    }
    let per = marks.len().div_ceil(TAIL_WINDOWS);
    let mut from = start;
    let rates: Vec<f64> = marks
        .chunks(per)
        .map(|c| {
            let to = c[c.len() - 1].0;
            let r = c.iter().map(|m| m.1).sum::<f64>() / (to - from).max(1e-9);
            from = to;
            r
        })
        .collect();
    median(&rates)
}

/// Σ num ÷ Σ den over `samples` = (num, den): the median over up to
/// `TAIL_WINDOWS` consecutive groups.
pub fn windowed_ratio(samples: &[(f64, f64)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let per = samples.len().div_ceil(TAIL_WINDOWS);
    let ratios: Vec<f64> = samples
        .chunks(per)
        .map(|c| {
            let (n, d) = c.iter().fold((0.0, 0.0), |a, s| (a.0 + s.0, a.1 + s.1));
            n / d.max(1e-12)
        })
        .collect();
    median(&ratios)
}

/// The tail percentile actually reported for a `target` (0.95, 0.99):
/// the highest percentile, at most `target`, with at least ten samples
/// beyond it.
pub fn tail_q(n: usize, target: f64) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    target.min(1.0 - 10.0 / n as f64)
}

/// Collected output of one run: metrics by name, and facts.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// A median of `samples`, with its sample count recorded.
    pub fn p50(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.fact(&format!("samples.{name}"), samples.len());
        self.metric(name, median(samples), unit);
    }

    /// A tail percentile of `samples` (in time order): the median, over
    /// up to `TAIL_WINDOWS` consecutive windows that each hold ten
    /// samples beyond `target`, of each window's percentile. With fewer
    /// samples, one window and the highest percentile with ten samples
    /// beyond it. Records the sample count, windows and percentile used.
    pub fn tail(&mut self, name: &str, samples: &[f64], target: f64, unit: &'static str) {
        let need = (10.0 / (1.0 - target)).ceil() as usize;
        let windows = (samples.len() / need).clamp(1, TAIL_WINDOWS);
        let per = (samples.len() / windows).max(1);
        let q = tail_q(per, target);
        self.fact(&format!("samples.{name}"), samples.len());
        self.fact(&format!("windows.{name}"), windows);
        self.fact(&format!("percentile.{name}"), format!("{:.4}", q * 100.0));
        let w: Vec<f64> = samples
            .chunks(per)
            .take(windows)
            .map(|c| quantile(c, q))
            .collect();
        self.metric(name, median(&w), unit);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Human-readable table of metrics and facts.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<34} {value:>16.6} {unit}");
        }
        s
    }

    pub fn facts_json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", n, v, u))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Host facts: cores, CPU model and cache sizes, read from the kernel's
/// information files.
pub fn host_facts(r: &mut Report) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.fact("host.nproc", cores);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    r.fact("host.cpu_model", model);
    for (level, key) in [("2", "host.l2_bytes"), ("3", "host.llc_bytes")] {
        if let Some(b) = cache_bytes(level) {
            r.fact(key, b);
        }
    }
}

/// A run whose host lost more than this share of its CPU time to steal
/// (other guests on the same machine) is marked not comparable.
pub const STEAL_LIMIT: f64 = 0.05;

/// (steal, total) CPU time of all cores, in clock ticks, from the `cpu`
/// line of `/proc/stat`; `None` where the kernel does not report it.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.len() == 8).then(|| (f[7], f.iter().sum()))
}

/// The share of CPU time stolen between two `cpu_times` readings, and
/// whether the run stays comparable with runs of other code.
pub fn steal_facts(r: &mut Report, from: Option<(u64, u64)>, to: Option<(u64, u64)>) {
    let (Some((s0, t0)), Some((s1, t1))) = (from, to) else {
        r.fact("host.steal_frac", "unknown");
        return;
    };
    let frac = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    r.fact("host.steal_frac", format!("{frac:.4}"));
    r.fact("host.steal_limit", STEAL_LIMIT);
    let comparable = frac <= STEAL_LIMIT;
    r.fact("host.comparable", comparable);
    if !comparable {
        eprintln!(
            "perfbench: {:.1}% of CPU time was stolen during the run (limit {:.0}%): \
             its times are not comparable with other runs",
            frac * 100.0,
            STEAL_LIMIT * 100.0
        );
    }
}

/// Size in bytes of the unified cache at `level`, as cpu0 sees it.
pub fn cache_bytes(level: &str) -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        if read("level").as_deref().map(str::trim) != Some(level) {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mul) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mul);
    }
    None
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(1000, 0.99), 0.99);
        assert!((tail_q(500, 0.99) - 0.98).abs() < 1e-12);
        assert_eq!(tail_q(10, 0.95), 0.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
