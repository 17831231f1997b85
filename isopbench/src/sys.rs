//! Process measurements (CPU time, peak memory) and run provenance.

use std::fs;
use std::path::{Path, PathBuf};

/// Clock ticks per second of the `/proc/self/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Host cores available to this process — the width of every
/// `Parallelism`, `ModelZoo` and engine core budget the benchmark builds.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// User plus system CPU seconds of the whole process, exited threads
/// included.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable: the benchmark only runs on
/// Linux.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU field");
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size of the process so far, MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Total size in bytes of the regular files under `dir` (0 when absent).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The checked-out revision read from `.git` under `root`, or `unknown`
/// (benchmark checkouts need not be git repositories).
#[must_use]
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest over the relative paths and contents of every source file
/// the benchmark binary is built from, so two runs can be tied to the same
/// code even where there is no git revision.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "isopbench", "Cargo.toml", "Cargo.lock"] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        eat(rel.to_string_lossy().as_bytes());
        eat(&fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}:{}", files.len())
}

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(meta) = fs::metadata(path) else {
        return;
    };
    if meta.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    if path.file_name().is_some_and(|n| n == "target") {
        return;
    }
    if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            collect_sources(&e.path(), out);
        }
    }
}

/// `release` or `debug`: timings from a debug build are not comparable.
#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
