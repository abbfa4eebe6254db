//! The perf trajectory: `BENCH_HISTORY.jsonl`.
//!
//! `BENCH_kernels.json` / `BENCH_attack.json` / `BENCH_verify.json` are
//! snapshots — each
//! `gnnunlock-bench perf` run overwrites them. This module folds every
//! snapshot into one tracked append-only line
//! (`gnnunlock-bench history append`) and gates CI on it
//! (`gnnunlock-bench history check`): the current run's speedups must
//! stay within [`REGRESSION_TOLERANCE`] of the most recent
//! matching-mode history entry.
//!
//! Only **speedup ratios** are compared, never absolute nanoseconds:
//! baseline and optimized kernels are timed on the same machine in the
//! same process, so their ratio transfers across machines where raw
//! wall-clock never would.

use crate::perf::{ATTACK_FILE, KERNELS_FILE, VERIFY_FILE};
use gnnunlock_engine::Json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the tracked trajectory file (JSON Lines, append-only).
pub const HISTORY_FILE: &str = "BENCH_HISTORY.jsonl";

/// A run passes the check while `current >= tolerance * baseline` for
/// every gated metric; 0.85 = the "fail on >15% regression" contract.
pub const REGRESSION_TOLERANCE: f64 = 0.85;

/// The metrics the regression gate compares (speedup ratios from the
/// kernels document).
pub const GATED_KERNELS: [&str; 2] = ["kernel_family", "train_epoch_composite"];

/// The speedup of `kernel` in a kernels document, preferring the
/// `medium` shape (the acceptance shape; its timings are the least
/// noisy) and falling back to the last entry of that kernel.
pub fn kernel_speedup(kernels_doc: &Json, kernel: &str) -> Option<f64> {
    let Some(Json::Arr(entries)) = kernels_doc.get("kernels") else {
        return None;
    };
    let of_kernel = || {
        entries
            .iter()
            .filter(|e| e.get("kernel").and_then(Json::as_str) == Some(kernel))
    };
    of_kernel()
        .find(|e| e.get("shape").and_then(Json::as_str) == Some("medium"))
        .or_else(|| of_kernel().next_back())
        .and_then(|e| e.get("speedup"))
        .and_then(Json::as_num)
}

/// Summarize one perf run into a single history line.
///
/// # Errors
///
/// A kernels document missing a gated metric, or a verify document
/// missing its family speedup (nothing meaningful could be appended,
/// and a later `check` would silently pass).
pub fn summarize(
    label: &str,
    kernels: &Json,
    attack: Option<&Json>,
    verify: Option<&Json>,
) -> Result<Json, String> {
    let mode = kernels
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut fields = vec![
        ("schema", Json::Num(1.0)),
        ("label", Json::Str(label.to_string())),
        ("mode", Json::Str(mode)),
    ];
    for kernel in GATED_KERNELS {
        let speedup = kernel_speedup(kernels, kernel)
            .ok_or_else(|| format!("{KERNELS_FILE} carries no '{kernel}' speedup"))?;
        fields.push((speedup_key(kernel), Json::Num(speedup)));
    }
    if let Some(speedup) = kernels.get("medium_speedup").and_then(Json::as_num) {
        fields.push(("medium_speedup", Json::Num(speedup)));
    }
    if let Some(verify) = verify {
        // Gated exactly like kernel_family: a speedup ratio, so it
        // transfers across machines.
        let speedup = verify
            .get(VERIFY_METRIC)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{VERIFY_FILE} carries no '{VERIFY_METRIC}'"))?;
        fields.push((VERIFY_METRIC, Json::Num(speedup)));
    }
    if let Some(attack) = attack {
        // Informational context, never gated: absolute times don't
        // transfer across machines.
        for key in ["train_epoch_ns", "total_ns"] {
            if let Some(v) = attack.get(key).and_then(Json::as_num) {
                fields.push((attack_key(key), Json::Num(v)));
            }
        }
    }
    Ok(Json::obj(fields))
}

/// The gated metric from the verify document (and its history-line key).
pub const VERIFY_METRIC: &str = "verify_family_speedup";

fn speedup_key(kernel: &str) -> &'static str {
    match kernel {
        "kernel_family" => "kernel_family_speedup",
        "train_epoch_composite" => "train_epoch_composite_speedup",
        _ => unreachable!("gated kernels are fixed"),
    }
}

fn attack_key(key: &str) -> &'static str {
    match key {
        "train_epoch_ns" => "attack_train_epoch_ns",
        "total_ns" => "attack_total_ns",
        _ => unreachable!("attack context keys are fixed"),
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Append one summary line for the `BENCH_*.json` snapshots in `dir` to
/// `dir/BENCH_HISTORY.jsonl`; a missing attack snapshot just drops the
/// informational fields. Returns the history path.
///
/// # Errors
///
/// Missing/malformed `BENCH_kernels.json`, or I/O on the history file.
pub fn append(dir: &Path, label: &str) -> Result<PathBuf, String> {
    let kernels = read_json(&dir.join(KERNELS_FILE))?;
    let attack = read_json(&dir.join(ATTACK_FILE)).ok();
    let verify = read_json(&dir.join(VERIFY_FILE)).ok();
    let line = summarize(label, &kernels, attack.as_ref(), verify.as_ref())?;
    let path = dir.join(HISTORY_FILE);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", line.render_compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The most recent history entry whose `mode` matches, parsed.
fn latest_matching(history: &str, mode: &str) -> Option<Json> {
    history
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            (!l.is_empty()).then(|| Json::parse(l).ok()).flatten()
        })
        .rfind(|e| e.get("mode").and_then(Json::as_str) == Some(mode))
}

/// Gate the current `BENCH_kernels.json` in `dir` against the history
/// at `history_path` (typically the tracked repo-root file): every
/// gated speedup must be at least `tolerance` × the most recent
/// matching-mode entry's. Returns a human-readable verdict; a history
/// with no matching-mode entry passes with a note (a new mode has no
/// baseline yet).
///
/// # Errors
///
/// A regression beyond tolerance, or missing/malformed inputs — both
/// are CI failures, so they share the error channel.
pub fn check(dir: &Path, history_path: &Path, tolerance: f64) -> Result<String, String> {
    let kernels = read_json(&dir.join(KERNELS_FILE))?;
    let mode = kernels
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let history = std::fs::read_to_string(history_path)
        .map_err(|e| format!("{}: {e}", history_path.display()))?;
    let Some(baseline) = latest_matching(&history, mode) else {
        return Ok(format!(
            "no '{mode}'-mode baseline in {}; nothing to compare (pass)",
            history_path.display()
        ));
    };
    let label = baseline
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("unlabeled");
    let mut report = format!("baseline '{label}' (mode {mode}), tolerance {tolerance:.2}:\n");
    for kernel in GATED_KERNELS {
        let current = kernel_speedup(&kernels, kernel)
            .ok_or_else(|| format!("current {KERNELS_FILE} carries no '{kernel}' speedup"))?;
        let Some(base) = baseline.get(speedup_key(kernel)).and_then(Json::as_num) else {
            report.push_str(&format!("  {kernel}: no baseline metric, skipped\n"));
            continue;
        };
        if current < tolerance * base {
            return Err(format!(
                "perf regression: {kernel} speedup {current:.3}x fell below \
                 {tolerance:.2} x baseline {base:.3}x (from '{label}', mode {mode})"
            ));
        }
        report.push_str(&format!("  {kernel}: {current:.3}x vs {base:.3}x ok\n"));
    }
    // Verification family: gated like kernel_family, read from its own
    // snapshot. A baseline line predating the metric skips with a note;
    // a baseline that has it makes the current snapshot mandatory (so
    // the gate cannot be dodged by not producing BENCH_verify.json).
    match baseline.get(VERIFY_METRIC).and_then(Json::as_num) {
        None => report.push_str(&format!("  {VERIFY_METRIC}: no baseline metric, skipped\n")),
        Some(base) => {
            let verify = read_json(&dir.join(VERIFY_FILE))?;
            let current = verify
                .get(VERIFY_METRIC)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("current {VERIFY_FILE} carries no '{VERIFY_METRIC}'"))?;
            if current < tolerance * base {
                return Err(format!(
                    "perf regression: {VERIFY_METRIC} {current:.3}x fell below \
                     {tolerance:.2} x baseline {base:.3}x (from '{label}', mode {mode})"
                ));
            }
            report.push_str(&format!(
                "  {VERIFY_METRIC}: {current:.3}x vs {base:.3}x ok\n"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_engine::testing::TempDir;

    fn kernels_doc(mode: &str, family: f64, epoch: f64) -> Json {
        let entry = |kernel: &str, shape: &str, speedup: f64| {
            Json::obj(vec![
                ("kernel", Json::Str(kernel.to_string())),
                ("shape", Json::Str(shape.to_string())),
                ("speedup", Json::Num(speedup)),
            ])
        };
        Json::obj(vec![
            ("schema", Json::Num(1.0)),
            ("mode", Json::Str(mode.to_string())),
            (
                "kernels",
                Json::Arr(vec![
                    entry("kernel_family", "small", 99.0),
                    entry("kernel_family", "medium", family),
                    entry("train_epoch_composite", "medium", epoch),
                ]),
            ),
            ("medium_speedup", Json::Num(family)),
        ])
    }

    #[test]
    fn summarize_prefers_the_medium_shape() {
        let doc = kernels_doc("smoke", 3.5, 2.0);
        assert_eq!(kernel_speedup(&doc, "kernel_family"), Some(3.5));
        let line = summarize("t", &doc, None, None).unwrap();
        assert_eq!(
            line.get("kernel_family_speedup").and_then(Json::as_num),
            Some(3.5)
        );
        assert_eq!(line.get("mode").and_then(Json::as_str), Some("smoke"));
    }

    #[test]
    fn append_then_check_gates_on_matching_mode() {
        let dir = TempDir::new("history-gate");
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("smoke", 3.0, 2.0).render(),
        )
        .unwrap();
        let history = append(&dir, "seed").unwrap();

        // Same numbers: passes.
        check(&dir, &history, REGRESSION_TOLERANCE).unwrap();
        // Mild noise above tolerance: passes.
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("smoke", 2.7, 1.8).render(),
        )
        .unwrap();
        check(&dir, &history, REGRESSION_TOLERANCE).unwrap();
        // >15% regression on one gated metric: fails, naming it.
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("smoke", 2.9, 1.5).render(),
        )
        .unwrap();
        let err = check(&dir, &history, REGRESSION_TOLERANCE).unwrap_err();
        assert!(err.contains("train_epoch_composite"), "{err}");
        // A mode with no baseline passes with a note.
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("full", 0.1, 0.1).render(),
        )
        .unwrap();
        let note = check(&dir, &history, REGRESSION_TOLERANCE).unwrap();
        assert!(note.contains("no 'full'-mode baseline"), "{note}");

        // Appending a full entry arms the gate for that mode too.
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("full", 4.0, 3.0).render(),
        )
        .unwrap();
        append(&dir, "seed-full").unwrap();
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("full", 1.0, 3.0).render(),
        )
        .unwrap();
        let err = check(&dir, &history, REGRESSION_TOLERANCE).unwrap_err();
        assert!(err.contains("kernel_family"), "{err}");
    }

    fn verify_doc(speedup: f64) -> Json {
        Json::obj(vec![
            ("schema", Json::Num(1.0)),
            ("mode", Json::Str("smoke".to_string())),
            (VERIFY_METRIC, Json::Num(speedup)),
        ])
    }

    #[test]
    fn verify_family_is_gated_like_kernel_family() {
        let dir = TempDir::new("history-verify-gate");
        std::fs::write(
            dir.join(KERNELS_FILE),
            kernels_doc("smoke", 3.0, 2.0).render(),
        )
        .unwrap();
        // A run without a verify snapshot appends a line without the
        // metric; checks against it skip with a note (pre-metric lines
        // stay valid baselines).
        let history = append(&dir, "pre-verify").unwrap();
        std::fs::write(dir.join(VERIFY_FILE), verify_doc(4.0).render()).unwrap();
        let note = check(&dir, &history, REGRESSION_TOLERANCE).unwrap();
        assert!(note.contains("no baseline metric"), "{note}");

        // Once a line carries the metric, it is gated.
        append(&dir, "with-verify").unwrap();
        let ok = check(&dir, &history, REGRESSION_TOLERANCE).unwrap();
        assert!(ok.contains(VERIFY_METRIC), "{ok}");
        std::fs::write(dir.join(VERIFY_FILE), verify_doc(1.0).render()).unwrap();
        let err = check(&dir, &history, REGRESSION_TOLERANCE).unwrap_err();
        assert!(err.contains(VERIFY_METRIC), "{err}");
        // ... and deleting the snapshot does not dodge the gate.
        std::fs::remove_file(dir.join(VERIFY_FILE)).unwrap();
        assert!(check(&dir, &history, REGRESSION_TOLERANCE).is_err());
    }
}
