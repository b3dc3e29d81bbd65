//! The environment block every printout carries: host shape, thread
//! count and the exact source measured.

use crate::json::quote;
use std::fs;
use std::path::Path;

/// Host and source facts for one run.
#[derive(Debug, Clone)]
pub struct Env {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// L2 cache size as the kernel reports it.
    pub l2: String,
    /// L3 cache size as the kernel reports it.
    pub l3: String,
    /// Worker threads the workload's simulator uses.
    pub threads: usize,
    /// Git commit of the checkout, when it is a git checkout.
    pub git_commit: String,
    /// FNV-1a digest of the measured sources (`crates/` and the
    /// benchmark's own `src/`), which identifies the code measured even
    /// where there is no git metadata.
    pub source_digest: String,
}

impl Env {
    /// Captures the environment of a run using `threads` workers.
    pub fn capture(threads: usize) -> Env {
        Env {
            nproc: nproc(),
            cpu_model: cpu_model(),
            l2: cache_size(2),
            l3: cache_size(3),
            threads,
            git_commit: git_commit(),
            source_digest: format!("{:016x}", source_digest()),
        }
    }

    /// The block as printed lines.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("env nproc={} threads={}", self.nproc, self.threads),
            format!("env cpu={} l2={} l3={}", self.cpu_model, self.l2, self.l3),
            format!("env git={} source={}", self.git_commit, self.source_digest),
            "env note: bytes and ops/byte are computed counts; no bandwidth or roofline claim"
                .to_string(),
        ]
    }

    /// The block as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"threads\": {}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \
             \"git_commit\": {}, \"source_digest\": {}}}",
            self.nproc,
            self.threads,
            quote(&self.cpu_model),
            quote(&self.l2),
            quote(&self.l3),
            quote(&self.git_commit),
            quote(&self.source_digest)
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let lvl = fs::read_to_string(dir.join("level")).unwrap_or_default();
        let kind = fs::read_to_string(dir.join("type")).unwrap_or_default();
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            if let Ok(size) = fs::read_to_string(dir.join("size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "wallbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
