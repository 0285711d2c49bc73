//! What the benchmark reads from the host: process CPU time, peak
//! memory, and the provenance every result carries. Linux `/proc`
//! only; a missing file reads as zero or "unknown" rather than failing
//! the run.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// has reported 100 to user space on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Process CPU time (user + system, every thread, exited ones
/// included) in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (ticks(fields.next()), ticks(fields.next()));
    (utime + stime) * 1000.0 / USER_HZ
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn loadavg() -> String {
    read("/proc/loadavg").trim().to_string()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string())
}

/// First line of a command's output, or "unknown" when it is missing
/// or fails (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_isa: &'static str,
    pub rustc: String,
    pub git_commit: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: adsim_runtime::available_parallelism(),
            cpu_model: cpu_model(),
            simd_isa: adsim_tensor::simd::active().name(),
            rustc: first_line("rustc", &["--version"]),
            git_commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_memory_is_positive() {
        let before = cpu_ms();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_ms() - before >= 30.0,
            "60 ms of spinning must show as CPU time"
        );
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_str("Intel(R) Xeon(R)"), "\"Intel(R) Xeon(R)\"");
    }
}
