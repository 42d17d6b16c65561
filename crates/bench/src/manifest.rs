//! The environment manifest embedded in every `fmm-bench/v1` document,
//! so a benchmark number is never context-free: compiler, target triple,
//! opt-level (captured by `build.rs` at compile time), CPU model and
//! core count (from `/proc/cpuinfo` at run time), the git revision, the
//! micro-kernel `f64` multiplies run on (`kernel_isa`: `avx512f`,
//! `avx2+fma` or `portable`, picked at run time by `fmm-kernel`), and the
//! `FMM_OBS` level the run executed under (telemetry is not free, so two
//! runs at different levels are not comparable).

use std::collections::BTreeMap;
use std::process::Command;

/// Collect the manifest as the flat string map the JSONL header carries.
pub fn collect() -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("rustc".into(), env!("FMM_BUILD_RUSTC").to_string());
    m.insert("target".into(), env!("FMM_BUILD_TARGET").to_string());
    m.insert("opt_level".into(), env!("FMM_BUILD_OPT_LEVEL").to_string());
    let (model, cores) = cpu_info();
    m.insert("cpu_model".into(), model);
    m.insert("cpu_cores".into(), cores.to_string());
    m.insert("git_rev".into(), git_rev());
    m.insert(
        "kernel_isa".into(),
        fmm_kernel::f64_kernel_isa().to_string(),
    );
    m.insert(
        "fmm_obs".into(),
        format!("{:?}", fmm_obs::level()).to_ascii_lowercase(),
    );
    m
}

/// CPU model name and logical core count from `/proc/cpuinfo`
/// (`("unknown", 0)` on platforms without it).
fn cpu_info() -> (String, usize) {
    let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") else {
        return ("unknown".to_string(), 0);
    };
    let model = text
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = text.lines().filter(|l| l.starts_with("processor")).count();
    (model, cores)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_has_every_key_and_no_empty_values() {
        let m = collect();
        for key in [
            "rustc",
            "target",
            "opt_level",
            "cpu_model",
            "cpu_cores",
            "git_rev",
            "kernel_isa",
            "fmm_obs",
        ] {
            let v = m.get(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(!v.is_empty(), "{key} is empty");
        }
        assert!(m["rustc"].contains("rustc") || m["rustc"] == "unknown");
    }
}
