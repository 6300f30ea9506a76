//! Process measurements and the environment stamp.

use std::process::Command;

/// Process CPU time (user + system, all threads) in milliseconds.
///
/// The same clock read as the `kernels_binary` bench binary's; that copy
/// is private to a binary, so the library cannot share it.
#[cfg(target_os = "linux")]
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer and the clock id is a Linux
    // constant; the call only writes through `tp`.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_ms() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The environment a result was measured in, as one JSON object: core
/// count, the effective worker-pool size and SIMD tier (with the raw
/// `DDNN_THREADS`/`DDNN_SIMD` values, normally unset), commit and rustc.
pub fn env_stamp() -> String {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"ddnn_threads\": {}, \"ddnn_threads_env\": {}, \
         \"simd_detected\": {}, \"simd_active\": {}, \"ddnn_simd_env\": {}, \
         \"commit\": {}, \"rustc\": {}}}",
        ddnn_tensor::parallel::num_threads(),
        json_str(&var("DDNN_THREADS")),
        json_str(ddnn_tensor::simd::detected_tier().name()),
        json_str(ddnn_tensor::simd::active_tier().name()),
        json_str(&var("DDNN_SIMD")),
        json_str(&command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
    )
}
