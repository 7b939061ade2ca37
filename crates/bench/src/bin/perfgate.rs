//! The CI performance-regression gate.
//!
//! Usage:
//!   # refresh the committed baseline from a fresh bench run
//!   cargo run -p sharper-bench --bin perfgate -- write \
//!       --baseline bench/baselines/BENCH_baseline.json --fresh bench-out
//!
//!   # compare a fresh bench run against the committed baseline
//!   cargo run -p sharper-bench --bin perfgate -- check \
//!       --baseline bench/baselines/BENCH_baseline.json --fresh bench-out \
//!       --tolerance 0.2
//!
//!   # gate only a subset of figures (e.g. the fig8xl job checks only its own)
//!   cargo run -p sharper-bench --bin perfgate -- check --figs fig8xl ...
//!
//! The gate reads the `BENCH_<figure>.json` files the `figures` binary wrote
//! into the fresh directory, reduces each gated figure to one headline
//! metric (the maximum `throughput_tps` across its points — simulated
//! throughput, which is a deterministic function of the seed, so it cannot
//! drift with runner hardware), and fails if any figure regressed more than
//! the tolerance below its committed baseline. The tolerance absorbs
//! intentional small behaviour changes (e.g. retuned timers); real
//! scheduler or protocol regressions overshoot it immediately.
//!
//! Wall-clock numbers (the `parallel` figure's speedup) are *not* gated:
//! they depend on the runner's core count and load. Only simulated
//! throughput is.

use sharper_bench::json::Object;
use sharper_bench::{cli_flag_value, write_output};
use std::path::{Path, PathBuf};
use std::process::exit;

/// The figures the gate tracks, in the order they are reported.
const GATED_FIGURES: &[&str] = &["fig6a", "batching", "parallel", "exec", "fig8xl", "reshard"];

/// Extracts every `"throughput_tps":<number>` value from a BENCH json
/// document. Every such document is rendered by this crate's one writer
/// (`sharper_bench::json::Object`), so a targeted scan is exact — no
/// general JSON parser is needed (or available offline).
fn throughput_values(json: &str) -> Vec<f64> {
    json.split("\"throughput_tps\":")
        .skip(1)
        .filter_map(leading_number)
        .collect()
}

/// Parses the number at the start of `text`.
fn leading_number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// The headline metric of one figure: the maximum throughput of any point.
fn headline(fresh_dir: &Path, figure: &str) -> Option<f64> {
    let path = fresh_dir.join(format!("BENCH_{figure}.json"));
    let json = std::fs::read_to_string(&path)
        .map_err(|e| eprintln!("cannot read {}: {e}", path.display()))
        .ok()?;
    throughput_values(&json)
        .into_iter()
        .max_by(|a, b| a.total_cmp(b))
}

/// Reads the baseline metric for `figure` out of the baseline document
/// (format: `{"figures":[{"figure":"fig6a","max_throughput_tps":N},...]}`).
fn baseline_metric(baseline: &str, figure: &str) -> Option<f64> {
    let needle = format!("\"figure\":\"{figure}\",\"max_throughput_tps\":");
    let pos = baseline.find(&needle)?;
    leading_number(&baseline[pos + needle.len()..])
}

/// One entry of the baseline document.
fn baseline_entry(figure: &str, metric: f64) -> Object {
    Object::new()
        .string("figure", figure)
        .num("max_throughput_tps", metric, 3)
}

/// Appends a markdown per-figure ratio table to `$GITHUB_STEP_SUMMARY` when
/// running under GitHub Actions (no-op elsewhere).
fn write_step_summary(rows: &[(String, f64, f64, f64, bool)], tolerance: f64, failed: bool) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut body = String::from("### Perf gate: fresh vs committed baseline\n\n");
    body.push_str("| figure | baseline (tps) | fresh (tps) | ratio | verdict |\n");
    body.push_str("|---|---:|---:|---:|---|\n");
    for (figure, base, fresh, ratio, ok) in rows {
        body.push_str(&format!(
            "| {figure} | {base:.1} | {fresh:.1} | {ratio:.3} | {} |\n",
            if *ok { "ok" } else { "**REGRESSED**" }
        ));
    }
    body.push_str(&format!(
        "\n{} (tolerance {:.0}%)\n",
        if failed {
            "**Perf gate failed.**"
        } else {
            "Perf gate passed."
        },
        tolerance * 100.0
    ));
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| {
            use std::io::Write as _;
            f.write_all(body.as_bytes())
        })
    {
        eprintln!("failed to append step summary {path}: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str);
    let baseline_path = PathBuf::from(
        cli_flag_value(&args, "--baseline")
            .unwrap_or_else(|| "bench/baselines/BENCH_baseline.json".into()),
    );
    let fresh_dir =
        PathBuf::from(cli_flag_value(&args, "--fresh").unwrap_or_else(|| "bench-out".into()));
    let tolerance: f64 = cli_flag_value(&args, "--tolerance")
        .map(|t| t.parse().expect("tolerance must be a number"))
        .unwrap_or(0.2);
    // `--figs a,b` restricts the gate to a subset of the tracked figures so
    // CI jobs can each gate only the figures they regenerate.
    let selected: Vec<&str> = match cli_flag_value(&args, "--figs") {
        None => GATED_FIGURES.to_vec(),
        Some(list) => {
            let wanted: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            for w in &wanted {
                if !GATED_FIGURES.contains(&w.as_str()) {
                    eprintln!(
                        "unknown gated figure {w:?}; tracked figures: {}",
                        GATED_FIGURES.join(", ")
                    );
                    exit(2);
                }
            }
            GATED_FIGURES
                .iter()
                .copied()
                .filter(|f| wanted.iter().any(|w| w == f))
                .collect()
        }
    };

    match mode {
        Some("write") => {
            // Figures outside the selection keep their committed entry, so a
            // job regenerating only some figures cannot clobber the rest.
            let existing = std::fs::read_to_string(&baseline_path).unwrap_or_default();
            let mut entries = Vec::new();
            for figure in GATED_FIGURES {
                if !selected.contains(figure) {
                    if let Some(metric) = baseline_metric(&existing, figure) {
                        println!("{figure:<10} max_throughput_tps {metric:>12.3} (kept)");
                        entries.push(baseline_entry(figure, metric));
                    }
                    continue;
                }
                let Some(metric) = headline(&fresh_dir, figure) else {
                    eprintln!("missing fresh results for {figure}; run the figures binary first");
                    exit(1);
                };
                println!("{figure:<10} max_throughput_tps {metric:>12.3}");
                entries.push(baseline_entry(figure, metric));
            }
            let body = Object::new().array("figures", entries).finish() + "\n";
            write_output(&baseline_path, &body);
            println!("BASELINE {}", baseline_path.display());
        }
        Some("check") => {
            let baseline = match std::fs::read_to_string(&baseline_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                    exit(1);
                }
            };
            let mut failed = false;
            let mut rows: Vec<(String, f64, f64, f64, bool)> = Vec::new();
            println!(
                "{:<10} {:>14} {:>14} {:>9} {:>8}",
                "figure", "baseline(tps)", "fresh(tps)", "ratio", "verdict"
            );
            for figure in &selected {
                let Some(base) = baseline_metric(&baseline, figure) else {
                    eprintln!(
                        "baseline has no entry for {figure}; regenerate it with `perfgate write`"
                    );
                    failed = true;
                    continue;
                };
                let Some(fresh) = headline(&fresh_dir, figure) else {
                    eprintln!("missing fresh results for {figure}");
                    failed = true;
                    continue;
                };
                let ratio = if base > 0.0 {
                    fresh / base
                } else {
                    f64::INFINITY
                };
                let ok = ratio >= 1.0 - tolerance;
                println!(
                    "{:<10} {:>14.1} {:>14.1} {:>9.3} {:>8}",
                    figure,
                    base,
                    fresh,
                    ratio,
                    if ok { "ok" } else { "REGRESSED" }
                );
                rows.push((figure.to_string(), base, fresh, ratio, ok));
                if !ok {
                    failed = true;
                }
                if ratio > 1.0 + tolerance {
                    println!(
                        "  note: {figure} improved >{:.0}%; refresh the baseline to lock it in",
                        tolerance * 100.0
                    );
                }
            }
            write_step_summary(&rows, tolerance, failed);
            if failed {
                eprintln!(
                    "performance regression beyond {:.0}% tolerance",
                    tolerance * 100.0
                );
                exit(1);
            }
            println!("perf gate passed (tolerance {:.0}%)", tolerance * 100.0);
        }
        _ => {
            eprintln!(
                "usage: perfgate <write|check> [--baseline FILE] [--fresh DIR] [--tolerance F]"
            );
            exit(2);
        }
    }
}
