//! Measurements taken from outside the engine: process I/O, memory and CPU
//! from procfs, space from a directory walk, and facts about the host.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};

/// Clock ticks per second of `/proc/self/stat`'s CPU times (`_SC_CLK_TCK`,
/// 100 on every mainstream Linux architecture).
const CLOCK_TICKS: f64 = 100.0;

/// Bytes this process has passed to `write`-family system calls
/// (`wchar` of `/proc/self/io`), whether or not they reached a device.
pub fn wchar() -> io::Result<u64> {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> io::Result<u64> {
    proc_field("/proc/self/status", "VmHWM:")
}

fn proc_field(path: &str, name: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|number| number.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("{name} in {path}")))
}

/// User plus system CPU seconds this process has used.
pub fn cpu_seconds() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / CLOCK_TICKS),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "utime/stime in /proc/self/stat")),
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Cores available to this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// The commit checked out in the working directory, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes every dirty page of the page cache back to disk (`sync(1)`) and
/// waits for it; `false` if `sync` could not be run.
pub fn sync() -> bool {
    Command::new("sync")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}
