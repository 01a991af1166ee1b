//! `loadgen` — the repo's one benchmark.
//!
//! Four seeded workloads through the real path — `tq_net::Client` →
//! loopback TCP → `tq_net::Server` (in process, the loop `tqd` runs) →
//! `Reader`/`Snapshot::run` or `WriterHub` → `Engine::apply` → WAL
//! (`SyncPolicy::Always`) → replication feed — with every answer checked
//! and every metric printed by name with its unit. See `README.md` beside
//! this file for the workloads, the metrics and how to read the output.
//!
//! ```text
//! loadgen --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is the result
//! loadgen --all [--seed N] [--seconds S]                     every workload, untraced then traced,
//!                                                            each in a fresh process
//! loadgen --check-repeat                                     everything twice at one seed, compared
//! loadgen --list                                             workload and metric names with units
//! ```

mod layerpass;
mod layers;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{ResultLine, RunResult, Stamp, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Options, Spec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: loadgen (--workload NAME... | --all | --check-repeat | --list)
               [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]";

#[derive(Debug, Clone)]
struct Cli {
    workloads: Vec<&'static Spec>,
    all: bool,
    check_repeat: bool,
    list: bool,
    seed: u64,
    seconds: f64,
    /// `None`: untraced for one workload, both passes under `--all`.
    trace: Option<bool>,
    out: PathBuf,
    corrupt_expected: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut cli = Cli {
        workloads: Vec::new(),
        all: false,
        check_repeat: false,
        list: false,
        seed: 11,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: PathBuf::from(target).join("loadgen"),
        corrupt_expected: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                let spec = workloads::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                cli.workloads.push(spec);
            }
            "--all" => cli.all = true,
            "--check-repeat" => cli.check_repeat = true,
            "--list" => cli.list = true,
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {s}"));
                }
                cli.seconds = s;
            }
            "--trace" => {
                // `--trace`, `--trace 0`, `--trace 1`.
                cli.trace = Some(match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                });
            }
            "--out" => cli.out = PathBuf::from(value(&mut i, flag)?),
            // Test hook, not in the usage: one expected answer is flipped,
            // so the run must fail.
            "--inject-corrupt-answer" => cli.corrupt_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.all || (cli.check_repeat && cli.workloads.is_empty()) {
        cli.workloads = WORKLOADS.iter().collect();
    }
    if cli.workloads.is_empty() && !cli.list {
        return Err("name a workload, or pass --all, --check-repeat or --list".into());
    }
    Ok(cli)
}

/// Non-zero when any operation or check of any run failed.
fn exit_code(results: &[RunResult]) -> u8 {
    u8::from(results.iter().any(|r| r.failed > 0))
}

fn commit() -> String {
    // Only where the working directory itself is the repository: the
    // benchmark reads nothing above its checkout.
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload, one pass, in this process. The result line is the last
/// line printed.
fn run_here(cli: &Cli) -> ExitCode {
    let spec = cli.workloads[0];
    let trace = cli.trace.unwrap_or(false);
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("loadgen: cannot create {}: {e}", cli.out.display());
        return ExitCode::from(2);
    }
    let result = workloads::run(
        spec,
        &Options {
            seed: cli.seed,
            seconds: cli.seconds,
            trace,
            out: cli.out.clone(),
            corrupt_expected: cli.corrupt_expected,
        },
    );
    let stamp = Stamp {
        commit: commit(),
        nproc: nproc(),
        seed: cli.seed,
        seconds: cli.seconds,
        flush_policy: layers::FLUSH_POLICY,
    };
    let file = cli.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        spec.name,
        cli.seed,
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&file, report::result_document(&stamp, &result)) {
        eprintln!("loadgen: cannot write {}: {e}", file.display());
    }
    println!(
        "loadgen {} seed {} seconds {} commit {} nproc {}",
        spec.name, cli.seed, cli.seconds, stamp.commit, stamp.nproc
    );
    print!("{}", result.render());
    println!("{}", result.contract_line());
    ExitCode::from(exit_code(&[result]))
}

/// What a child run printed, read back.
#[derive(Debug, Clone)]
struct ChildRun {
    workload: &'static str,
    trace: bool,
    result: ResultLine,
    answer_digest: String,
}

/// Re-executes this binary for one workload and pass, so that
/// `peak_rss_mb` and the process-global `tq-obs` registry are that run's
/// alone. The child's output is passed through.
fn run_child(cli: &Cli, spec: &'static Spec, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.corrupt_expected {
        cmd.arg("--inject-corrupt-answer");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = ResultLine::parse(last)
        .map_err(|e| format!("{} (trace {trace}) printed no result line: {e}", spec.name))?;
    let answer_digest = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("answer_digest"))
        .map_or(String::new(), |d| d.trim().to_string());
    Ok(ChildRun {
        workload: spec.name,
        trace,
        result,
        answer_digest,
    })
}

/// `--all` (or several `--workload`s): every workload in a fresh process,
/// untraced then traced unless `--trace` picked one pass.
fn run_all(cli: &Cli) -> Result<Vec<ChildRun>, String> {
    let passes: &[bool] = match cli.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut runs = Vec::new();
    for &spec in &cli.workloads {
        for &trace in passes {
            runs.push(run_child(cli, spec, trace)?);
        }
    }
    Ok(runs)
}

fn summary(runs: &[ChildRun]) -> String {
    let mut out = String::from("\n== summary ==\n");
    for run in runs {
        out.push_str(&format!(
            "  {:<14} {:<9} failed_ops {}/{}  answer_digest {}\n",
            run.workload,
            if run.trace { "per-layer" } else { "end-to-end" },
            run.result.failed,
            run.result.attempted,
            run.answer_digest
        ));
    }
    out
}

/// `--check-repeat`: every workload twice at one seed, both passes. The
/// end-to-end metrics must agree within their bounds, the exact rows and
/// the answer digests exactly. Prints the spread it saw.
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut lines = vec![format!("\n== repeatability at seed {} ==", cli.seed)];
    let mut all = Vec::new();
    for &spec in &cli.workloads {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (a, b) = (run_child(cli, spec, trace)?, run_child(cli, spec, trace)?);
            if a.answer_digest != b.answer_digest {
                ok = false;
                lines.push(format!(
                    "  {:<14} ANSWER DIGESTS DIFFER: {} vs {}",
                    spec.name, a.answer_digest, b.answer_digest
                ));
            }
            for def in defs {
                let (x, y) = (
                    a.result.get(def.name).unwrap_or(f64::NAN),
                    b.result.get(def.name).unwrap_or(f64::NAN),
                );
                let spread = if x == y {
                    0.0
                } else {
                    (x - y).abs() / ((x.abs() + y.abs()) / 2.0)
                };
                let verdict = if def.exact && x.to_bits() != y.to_bits() {
                    ok = false;
                    "NOT EXACT"
                } else if !trace && spread > def.bound {
                    ok = false;
                    "BEYOND ITS BOUND"
                } else if def.exact {
                    "exact"
                } else {
                    ""
                };
                if !trace || !verdict.is_empty() {
                    lines.push(format!(
                        "  {:<14} {:<34} {x:>16.4} {y:>16.4} {:>7.2} % {verdict}",
                        spec.name,
                        def.name,
                        spread * 100.0
                    ));
                }
            }
            all.extend([a, b]);
        }
    }
    ok &= all.iter().all(|r| r.result.correct);
    print!("{}", summary(&all));
    println!("{}", lines.join("\n"));
    println!("repeatability: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        let names: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        print!("{}", report::list(&names));
        return ExitCode::SUCCESS;
    }
    let outcome = if cli.check_repeat {
        check_repeat(&cli)
    } else if cli.all || cli.workloads.len() > 1 {
        run_all(&cli).map(|runs| {
            print!("{}", summary(&runs));
            runs.iter().all(|r| r.result.correct)
        })
    } else {
        return run_here(&cli);
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let c = cli(&[
            "--workload",
            "hit_wire",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workloads.len(), 1);
        assert_eq!(
            (c.workloads[0].name, c.seed, c.seconds, c.trace),
            ("hit_wire", 7, 10.0, Some(false))
        );
        assert_eq!(
            cli(&["--workload", "eval_paced", "--trace", "1"])
                .unwrap()
                .trace,
            Some(true)
        );
        // A bare --trace means on, and does not swallow the next flag.
        let c = cli(&["--trace", "--workload", "ingest_big"]).unwrap();
        assert_eq!((c.trace, c.workloads[0].name), (Some(true), "ingest_big"));
        assert_eq!(cli(&["--all"]).unwrap().workloads.len(), WORKLOADS.len());
        assert_eq!(
            cli(&["--check-repeat"]).unwrap().workloads.len(),
            WORKLOADS.len()
        );
        let two = cli(&["--workload", "hit_wire", "--workload", "ingest_small"]).unwrap();
        assert_eq!(two.workloads.len(), 2);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "x", "--all"],
            &["--frobnicate"],
            &[],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} parsed");
        }
        assert!(cli(&["--list"]).unwrap().list);
    }

    #[test]
    fn failed_operations_fail_the_process() {
        let clean = RunResult::default();
        let mut dirty = RunResult::default();
        dirty.check(false, || "injected".into());
        assert_eq!(exit_code(std::slice::from_ref(&clean)), 0);
        assert_eq!(exit_code(&[clean, dirty]), 1);
    }

    /// The README's metric tables, `--list` and `BENCHMARK.json` all carry
    /// the catalogue's names — in the catalogue's order.
    #[test]
    fn readme_list_and_benchmark_json_name_the_same_metrics() {
        let readme = include_str!("README.md");
        let table_names = |marker: &str| -> Vec<String> {
            let begin = format!("<!-- {marker}:begin -->");
            let end = format!("<!-- {marker}:end -->");
            let body = readme
                .split(&begin)
                .nth(1)
                .and_then(|r| r.split(&end).next());
            body.unwrap_or_else(|| panic!("README lacks the {marker} table"))
                .lines()
                .filter_map(|l| l.strip_prefix("| `"))
                .filter_map(|l| l.split('`').next())
                .map(str::to_string)
                .collect()
        };
        let names = |defs: &[report::MetricDef]| -> Vec<String> {
            defs.iter().map(|d| d.name.to_string()).collect()
        };
        assert_eq!(table_names("end-to-end"), names(END_TO_END));
        assert_eq!(table_names("per-layer"), names(PER_LAYER));
        assert_eq!(
            table_names("workloads"),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        let listed = report::list(&[]);
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(listed.contains(def.name), "--list lacks {}", def.name);
        }

        let doc = report::parse_json(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let section = |key: &str| {
            doc.get(key)
                .and_then(report::Json::as_array)
                .unwrap()
                .to_vec()
        };
        let field = |m: &report::Json, key: &str| m.get(key).unwrap().as_str().unwrap().to_string();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(field(m, "name"), def.name);
                assert_eq!(field(m, "unit"), def.unit);
                assert_eq!(field(m, "better"), def.better.as_str());
                if key == "end_to_end" {
                    assert_eq!(
                        m.get("bound").unwrap().as_f64(),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
        let workloads = section("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(w, "name"), spec.name);
            assert_eq!(field(w, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
