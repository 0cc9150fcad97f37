//! The host block of a result, the process meters read from `/proc`, and the
//! guards that refuse or flag a run the host cannot measure honestly.

use std::path::PathBuf;

use serde::Value;

/// Where traces, scratch checkpoints and result files go: always inside the
/// current directory's ignored `target/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads, ranks and load-generator connections used by default.
pub fn default_parallelism() -> usize {
    nproc().min(2)
}

/// A run asked for more generator connections or worker threads than the
/// host has cores: the generator would then steal the cores it is measuring.
#[derive(Debug, PartialEq)]
pub struct OversubscribedError {
    pub what: &'static str,
    pub asked: usize,
    pub nproc: usize,
}

impl std::fmt::Display for OversubscribedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refusing to run with {} {} on a host with {} core(s)",
            self.asked, self.what, self.nproc
        )
    }
}

pub fn check_parallelism(
    what: &'static str,
    asked: usize,
    nproc: usize,
) -> Result<(), OversubscribedError> {
    if asked == 0 || asked > nproc {
        return Err(OversubscribedError { what, asked, nproc });
    }
    Ok(())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    read("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Kernel clock ticks per second for `/proc/*/stat` times. Linux has fixed
/// USER_HZ at 100 on every architecture this repository builds for.
const USER_HZ: f64 = 100.0;

fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds (user + system) of the whole process so far.
pub fn process_cpu_seconds() -> f64 {
    read("/proc/self/stat")
        .and_then(|s| stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// On-CPU seconds of the calling thread, from the scheduler's nanosecond
/// accounting (finer than the 10 ms ticks of `stat`).
pub fn thread_cpu_seconds() -> f64 {
    read("/proc/thread-self/schedstat")
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/type")),
            read(&format!("{base}/size")),
        ) else {
            break;
        };
        out.push((
            format!(
                "L{}{}",
                level.trim(),
                kind.trim().chars().next().unwrap_or(' ')
            )
            .to_lowercase(),
            size.trim().to_string(),
        ));
    }
    out
}

/// Commit of the checkout, when it is a git work tree (the driver's checkout
/// is not one).
fn commit() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map_or_else(|| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Host description recorded with every result.
pub fn host_block(threads: usize, ranks: usize, connections: usize, load_start: f64) -> Value {
    let load_end = loadavg_1m().unwrap_or(0.0);
    Value::Obj(vec![
        ("commit".into(), Value::Str(commit())),
        ("cpu_model".into(), Value::Str(cpu_model())),
        (
            "caches".into(),
            Value::Obj(
                cache_sizes()
                    .into_iter()
                    .map(|(k, v)| (k, Value::Str(v)))
                    .collect(),
            ),
        ),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("threads".into(), Value::U64(threads as u64)),
        ("ranks".into(), Value::U64(ranks as u64)),
        ("connections".into(), Value::U64(connections as u64)),
        (
            "simd_level".into(),
            Value::Str(format!("{:?}", bpmf_linalg::simd::simd_level())),
        ),
        ("loadavg_start".into(), Value::F64(load_start)),
        ("loadavg_end".into(), Value::F64(load_end)),
        // Other work on the host was already using every core when the run
        // began: its timings are not trustworthy.
        ("noisy".into(), Value::Bool(load_start > nproc() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_parses() {
        let line = "1234 (my (odd) cmd) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 4 0 100";
        assert_eq!(stat_cpu_seconds(line), Some(3.0));
        assert_eq!(stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn oversubscription_is_a_typed_refusal() {
        assert!(check_parallelism("threads", 2, 2).is_ok());
        let err = check_parallelism("generator connections", 3, 2).unwrap_err();
        assert_eq!(err.asked, 3);
        assert!(err.to_string().contains("3 generator connections"));
        assert!(check_parallelism("threads", 0, 2).is_err());
    }

    #[test]
    fn proc_meters_read_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_seconds() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
