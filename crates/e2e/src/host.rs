//! Facts about the host and the build: the provenance header and the
//! two process-level measurements (`VmHWM`, CPU time).

use std::process::Command;

/// `/proc/self/stat` counts CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 on every architecture it exposes the file on.
const USER_HZ: f64 = 100.0;

/// Peak resident set of this process so far, MB (`VmHWM`); 0 where
/// `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: utime and stime are the 14th and
            // 15th overall, i.e. the 12th and 13th after it.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// `rustc -V` of the toolchain on `PATH` (the one `cargo run` built
/// this binary with), or `unknown`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, with `-dirty` when tracked files differ; or
/// `unknown` outside a git checkout.
pub fn git_revision() -> String {
    match first_line_of("git", &["rev-parse", "HEAD"]) {
        None => "unknown".into(),
        Some(rev) => {
            let clean = Command::new("git")
                .args(["diff", "--quiet", "HEAD"])
                .status()
                .is_ok_and(|s| s.success());
            if clean {
                rev
            } else {
                format!("{rev}-dirty")
            }
        }
    }
}

/// Worker threads the program's scoped pools will use.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}
