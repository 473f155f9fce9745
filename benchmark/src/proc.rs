//! Process-level resource readings from `/proc/self`.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// On-CPU seconds (user + system) of this process so far, all threads.
///
/// Read from `/proc/self/stat` fields 14 and 15 (`utime`, `stime`);
/// `/proc/self/schedstat` reads 0 on the sandbox kernel. Resolution is
/// one 10 ms tick, which is 0.25 % of the shortest workload body.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") / 1024.0
}

/// `model name` of the first CPU, for the hardware line of a report.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `utime + stime` in ticks. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64)
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_ascii_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_awkward_command_names() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 \
                    731 19 0 0 20 0 1 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(750.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
