//! One layered benchmark: paper-shaped training, distributed and serving
//! workloads, an end-to-end pass with tracing off and a traced pass that
//! derives per-layer numbers. See `README.md` beside this package.
//!
//! ```text
//! benchmark                                  all workloads, both passes
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark --smoke                          tiny sizes, ~1 s per workload
//! benchmark --compare A.json B.json
//! ```

mod compare;
mod host;
mod loadgen;
mod probes;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use run::{Ctx, Outcome};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;

/// Timed region per workload when `--seconds` is not given; `BENCHMARK.json`
/// records the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 8.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    threads: Option<usize>,
    connections: Option<usize>,
    compare: Option<(String, String)>,
    out: Option<PathBuf>,
    result_file: Option<PathBuf>,
    /// Load average the parent sampled before it started any child: a child's
    /// own reading would mostly see the sibling that ran just before it.
    host_load: Option<f64>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--threads N] [--connections N] [--out FILE] | --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        threads: None,
        connections: None,
        compare: None,
        out: None,
        result_file: None,
        host_load: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = number(flag, value(&mut it, flag)?)?,
            "--seconds" => {
                let s: f64 = number(flag, value(&mut it, flag)?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => args.traced = number::<u8>(flag, value(&mut it, flag)?)? != 0,
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--threads" => args.threads = Some(number(flag, value(&mut it, flag)?)?),
            "--connections" => args.connections = Some(number(flag, value(&mut it, flag)?)?),
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--result-file" => args.result_file = Some(PathBuf::from(value(&mut it, flag)?)),
            "--host-load" => args.host_load = Some(number(flag, value(&mut it, flag)?)?),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run_workload(w: Workload, ctx: &Ctx) -> Outcome {
    match w {
        Workload::TrainMovielens | Workload::TrainChembl => train::run_train(w, ctx),
        Workload::DistChembl => train::run_dist(ctx),
        _ => serve::run_serve(w, ctx),
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The metrics a pass reports: every end-to-end metric untraced, every
/// per-layer metric traced (0 for a layer the workload does not exercise).
fn metric_rows(out: &Outcome, traced: bool) -> Vec<Row> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                (m.name, m.unit, finite(v), 0.0)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let s = out.e2e.get(m.name);
                (
                    m.name,
                    m.unit,
                    finite(s.map_or(0.0, |s| s.value)),
                    finite(s.map_or(0.0, |s| s.spread)),
                )
            })
            .collect()
    }
}

type Row = (&'static str, &'static str, f64, f64);

/// `{name: {"value", "unit"[, "spread"]}}` — the driver's result line takes
/// exactly value and unit; the results file keeps the spread too.
fn metrics_value(rows: &[Row], with_spread: bool) -> Value {
    Value::Obj(
        rows.iter()
            .map(|(name, unit, value, spread)| {
                let mut fields = vec![
                    ("value", Value::F64(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ];
                if with_spread {
                    fields.push(("spread", Value::F64(*spread)));
                }
                (name.to_string(), obj(fields))
            })
            .collect(),
    )
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One workload, one pass, in this process. Prints every metric by name and
/// unit, then the one-line JSON result.
fn child(args: &Args, w: Workload) -> ExitCode {
    let nproc = host::nproc();
    let threads = args.threads.unwrap_or_else(host::default_parallelism);
    let connections = args.connections.unwrap_or(threads);
    for (what, asked) in [("threads", threads), ("generator connections", connections)] {
        if let Err(e) = host::check_parallelism(what, asked, nproc) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    let load_start = args
        .host_load
        .unwrap_or_else(|| host::loadavg_1m().unwrap_or(0.0));
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        traced: args.traced,
        par: threads,
        connections,
        tracer: Tracer::new(args.traced),
    };
    let out = run_workload(w, &ctx);

    println!(
        "{} seed={} seconds={} pass={}{}",
        w.name(),
        ctx.seed,
        seconds,
        if ctx.traced { "traced" } else { "end-to-end" },
        if ctx.smoke { " (smoke)" } else { "" }
    );
    let rows = metric_rows(&out, ctx.traced);
    for (name, unit, value, spread) in &rows {
        if ctx.traced && !out.layers.contains_key(name) {
            println!(
                "  {name:<34} {:>16} {unit:<7} (layer not exercised; reported as 0)",
                "n/a"
            );
        } else {
            println!("  {name:<34} {value:>16.6} {unit:<7} spread {spread:.6}");
        }
    }
    for (name, values) in &out.series {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        println!("  {name}: {}", shown.join(" "));
    }
    for note in &out.notes {
        println!("  FAILED: {note}");
    }
    if ctx.traced {
        println!(
            "  {:<36} {:>8} {:>10} {:>12} {:>12}",
            "span", "spans", "ops", "total ms", "self ms"
        );
        for (name, t) in trace::totals_by_name(&ctx.tracer.snapshot()) {
            println!(
                "  {name:<36} {:>8} {:>10} {:>12.3} {:>12.3}",
                t.spans,
                t.ops,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = host::out_dir().join(format!("trace-{}.jsonl", w.name()));
        match ctx.tracer.write_jsonl(&path, w.name()) {
            Ok(n) => println!("  {n} spans -> {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }

    let host = host::host_block(threads, threads, connections, load_start);
    if matches!(host.get("noisy"), Some(Value::Bool(true))) {
        println!("  NOISY: load average {load_start} exceeded {nproc} core(s) at the start");
    }
    if let Some(path) = &args.result_file {
        let full = obj(vec![
            ("workload", Value::Str(w.name().to_string())),
            ("seed", Value::U64(ctx.seed)),
            ("seconds", Value::F64(seconds)),
            ("traced", Value::Bool(ctx.traced)),
            ("smoke", Value::Bool(ctx.smoke)),
            ("correct", Value::Bool(out.correct())),
            ("attempted", Value::U64(out.attempted)),
            ("failed", Value::U64(out.failed)),
            ("metrics", metrics_value(&rows, true)),
            ("host", host),
        ]);
        let text = serde_json::to_string(&full).expect("result serializes");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("  could not write {}: {e}", path.display());
        }
    }
    let line = obj(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::U64(out.attempted.max(1))),
        ("failed", Value::U64(out.failed)),
        ("metrics", metrics_value(&rows, false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both passes, each in a fresh child process so its peak
/// RSS and CPU time are its own. Collects the children's results in one file.
fn all_workloads(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = host::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let host_load = host::loadavg_1m().unwrap_or(0.0);
    let mut runs: Vec<String> = Vec::new();
    let mut clean = true;
    for w in WORKLOADS {
        for traced in [false, true] {
            let result = dir.join(format!("run-{}-{}.json", w.name(), u8::from(traced)));
            std::fs::remove_file(&result).ok();
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--host-load", &host_load.to_string()])
                .arg("--result-file")
                .arg(&result);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(t) = args.threads {
                cmd.args(["--threads", &t.to_string()]);
            }
            if let Some(c) = args.connections {
                cmd.args(["--connections", &c.to_string()]);
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "{} (trace {}) ended with {status}",
                        w.name(),
                        u8::from(traced)
                    );
                    clean = false;
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", w.name());
                    clean = false;
                }
            }
            match std::fs::read_to_string(&result) {
                Ok(text) => runs.push(text),
                Err(_) => clean = false,
            }
            std::fs::remove_file(&result).ok();
        }
    }
    let out = args.out.clone().unwrap_or_else(|| dir.join("results.json"));
    let text = format!("{{\"runs\":[{}]}}\n", runs.join(","));
    match std::fs::write(&out, text) {
        Ok(()) => println!("results -> {}", out.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", out.display());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload {
        Some(w) => child(&args, w),
        None => all_workloads(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx(traced: bool) -> Ctx {
        Ctx {
            seed: 7,
            seconds: 0.5,
            smoke: true,
            traced,
            par: host::default_parallelism(),
            connections: host::default_parallelism(),
            tracer: Tracer::new(traced),
        }
    }

    /// Keeps the harness alive under `cargo test`: a training workload and a
    /// serving workload, smoke size, the same code paths as a full run.
    #[test]
    fn smoke_train_movielens_and_serve_lone_end_to_end() {
        let out = run_workload(Workload::TrainMovielens, &smoke_ctx(false));
        assert!(out.correct(), "train_movielens failed: {:?}", out.notes);
        for m in &END_TO_END {
            let v = out.e2e[m.name].value;
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }

        let ctx = smoke_ctx(true);
        let out = run_workload(Workload::ServeLone, &ctx);
        assert!(out.correct(), "serve_lone failed: {:?}", out.notes);
        for m in &END_TO_END {
            let v = out.e2e[m.name].value;
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }
        // A lone open-loop client never shares a batch.
        assert!(out.layers["coalesce.mean_batch"] < 1.5);
        assert!(out.layers["service.top_n_us_mean"] > 0.0);
        let spans = ctx.tracer.snapshot();
        assert!(spans.iter().any(|s| s.name == "client.request"));
        assert!(spans
            .iter()
            .any(|s| s.name == "wire.encode" && s.parent != 0));
        let rows = metric_rows(&out, true);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().all(|r| r.2.is_finite()));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_sat --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeSat));
        assert_eq!((a.seed, a.seconds, a.traced), (9, Some(10.0), true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        let c = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
