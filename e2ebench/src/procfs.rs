//! Process metrics from `/proc`, read without any new dependency.

use std::path::Path;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture (`getconf CLK_TCK`).
const USER_HZ: f64 = 100.0;
const MIB: f64 = 1024.0 * 1024.0;

/// User plus system CPU time of the whole process (every thread, live or
/// exited), from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after it
    // start at the last ')'. Field 3 (state) is index 0 there.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    mib(kib * 1024)
}

/// Resets `VmHWM` to the current RSS, so the next reading is the peak
/// of what ran in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Bytes a checkpoint store holds on disk, split as the store lays them
/// out: generation snapshots at the top level, the write-ahead journal
/// under `journal/`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBytes {
    pub generations: u64,
    pub journal: u64,
    pub total: u64,
}

impl StoreBytes {
    pub fn of(dir: &Path) -> std::io::Result<StoreBytes> {
        let mut bytes = StoreBytes::default();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                let inner = dir_bytes(&entry.path())?;
                if entry.file_name() == "journal" {
                    bytes.journal += inner;
                }
                bytes.total += inner;
            } else {
                if entry.file_name().to_string_lossy().starts_with("gen-") {
                    bytes.generations += meta.len();
                }
                bytes.total += meta.len();
            }
        }
        Ok(bytes)
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
