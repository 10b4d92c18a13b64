//! `mmwave` — command-line driver for the simulator, the HAR prototype,
//! the backdoor attack, the campaign DAG, the streaming service, and the
//! fleet observers.
//!
//! Every command and flag is declared once, in [`COMMANDS`] and
//! [`GLOBAL_FLAGS`]; `mmwave help` prints that table. Argv is checked
//! against it before anything runs: an unknown flag, a value flag with no
//! value, a switch given a value, a stray positional, or a value out of
//! range exits nonzero with `error: …` naming the flag.
//!
//! Results go to stdout; diagnostics go through the telemetry logger to
//! stderr. Every pipeline command ends with a stage-time summary table
//! (suppressed by `--quiet`).
//!
//! Everything runs at example scale by default; this is a demonstration
//! driver, not the benchmark harness (see `cargo bench -p mmwave-bench`).

use mmwave_har_backdoor::backdoor::dag::{self, CampaignDag, TaskNode};
use mmwave_har_backdoor::backdoor::worker as dagworker;
use mmwave_har_backdoor::backdoor::{fleet, AttackMetrics};
use mmwave_har_backdoor::body::{
    Activity, ActivitySampler, Participant, SampleVariation, SiteId,
};
use mmwave_har_backdoor::har::dataset::{DatasetGenerator, DatasetSpec};
use mmwave_har_backdoor::har::{CnnLstm, PrototypeConfig, Trainer, TrainerConfig};
use mmwave_har_backdoor::radar::capture::{CaptureConfig, Capturer, TriggerPlan};
use mmwave_har_backdoor::radar::trigger::{Trigger, TriggerAttachment};
use mmwave_har_backdoor::radar::{Environment, Placement};
use mmwave_har_backdoor::exec;
use mmwave_har_backdoor::serve;
use mmwave_har_backdoor::telemetry;
use mmwave_har_backdoor::telemetry::knob::{parse_count, parse_positive, parse_positive_f64};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SCENARIOS: [&str; 4] = ["push-pull", "left-right", "push-right", "push-acw"];

/// Seed of the experiment context and the attack behind `attack` and
/// `demo`.
const ATTACK_SEED: u64 = 42;

/// A flag: its name without `--`, its value placeholder (`None` for a
/// switch), and its help.
type Flag = (&'static str, Option<&'static str>, &'static str);

/// What a command body returns: its exit code, or a flag error.
type CommandResult = Result<ExitCode, String>;

/// One command's entry in the flag table.
struct Command {
    name: &'static str,
    summary: &'static str,
    /// Placeholder of the one positional argument the command takes.
    positional: Option<&'static str>,
    /// Flag groups; commands that share flags share a group.
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> CommandResult,
    /// Whether the run ends with the stage-time summary table. Inspectors
    /// and gates that run no pipeline of their own skip it.
    stage_summary: bool,
}

impl Command {
    /// Every flag the command accepts: its own, then the global ones.
    fn accepted(&self) -> impl Iterator<Item = &'static Flag> {
        let groups: &'static [&'static [Flag]] = self.flags;
        groups.iter().chain([&GLOBAL_FLAGS]).flat_map(|g| g.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.accepted().find(|f| f.0 == name)
    }
}

const GLOBAL_FLAGS: &[Flag] = &[
    ("log-level", Some("<error|warn|info|debug|trace>"), "stderr verbosity (default info)"),
    ("metrics-out", Some("<path>"), "write every telemetry event as JSON lines"),
    ("trace-out", Some("<path>"), "write a Chrome/Perfetto trace.json timeline"),
    ("quiet", None, "suppress diagnostics and the summary table"),
    ("workers", Some("<n>"), "parallel-stage threads (default MMWAVE_WORKERS, else all cores)"),
];

const FLEET_FLAGS: &[Flag] = &[
    ("dir", Some("<dir>"), "the campaign dir, instead of the positional"),
    ("ttl", Some("<secs>"), "stale-claim horizon (default MMWAVE_CLAIM_TTL_SECS or 30)"),
    ("factor", Some("<f>"), "straggler multiplier (default 4.0)"),
];

const STREAM_FLAGS: &[Flag] = &[
    ("sessions", Some("<n>"), "simulated sensor sessions"),
    ("seconds", Some("<s>"), "stream length per session"),
    ("fps", Some("<f>"), "frames per second per session (default 10)"),
    ("jitter", Some("<0..1>"), "arrival-time jitter"),
    ("burst", Some("<n>"), "frames per arrival"),
    ("seed", Some("<n>"), "traffic seed (default 7)"),
];

const COMMANDS: &[Command] = &[
    Command {
        name: "capture",
        summary: "simulate one radar capture and print its DRAI frames",
        positional: None,
        flags: &[&[
            ("activity", Some("<push|pull|left|right|cw|acw>"), "gesture (default push)"),
            ("distance", Some("<m>"), "radar distance (default 1.2)"),
            ("angle", Some("<deg>"), "radar angle (default 0)"),
            ("trigger", Some("<site>"), "also capture with the trigger worn at this body site"),
        ]],
        run: capture,
        stage_summary: true,
    },
    Command {
        name: "train",
        summary: "generate a dataset and train the HAR prototype",
        positional: None,
        flags: &[&[
            ("reps", Some("<n>"), "repetitions per participant and activity (default 1)"),
            ("epochs", Some("<n>"), "training epochs (default 20)"),
        ]],
        run: train,
        stage_summary: true,
    },
    Command {
        name: "attack",
        summary: "run an end-to-end backdoor experiment (smoke scale by default)",
        positional: None,
        flags: &[&[
            ("rate", Some("<0..1>"), "injection rate, in (0, 1] (default 0.4)"),
            ("frames", Some("<n>"), "poisoned frames per sample (default 8)"),
            ("scenario", Some("<push-pull|left-right|push-right|push-acw>"), "default push-pull"),
            ("fast", None, "bench scale instead of smoke scale"),
            ("resume", Some("<dir>"), "run as a task of the campaign DAG in <dir>"),
        ]],
        run: attack,
        stage_summary: true,
    },
    Command {
        name: "demo",
        summary: "smoke-scale attack through every stage (synthesis, DSP, SHAP, training, DAG)",
        positional: None,
        flags: &[],
        run: demo,
        stage_summary: true,
    },
    Command {
        name: "perf-check",
        summary: "compare perfbench BENCH_<workload>.json sets under BENCHMARK.json's bounds",
        positional: Some("<results-dir>"),
        flags: &[&[("baseline", Some("<dir>"), "baseline dir (required)")]],
        run: perf_check,
        stage_summary: false,
    },
    Command {
        name: "campaign-init",
        summary: "write a campaign DAG into a directory",
        positional: None,
        flags: &[&[
            ("dir", Some("<dir>"), "campaign dir (required)"),
            ("preset", Some("<demo|sweep>"), "default demo"),
        ]],
        run: campaign_init,
        stage_summary: true,
    },
    Command {
        name: "worker",
        summary: "claim and run ready campaign tasks until all resolve; workers may share a dir",
        positional: None,
        flags: &[&[
            ("dir", Some("<dir>"), "campaign dir (required)"),
            ("ttl", Some("<secs>"), "stale-claim TTL (default MMWAVE_CLAIM_TTL_SECS or 30)"),
            ("poll-ms", Some("<ms>"), "idle poll (default 200)"),
            ("worker-id", Some("<id>"), "claim owner (default MMWAVE_WORKER_ID or w<pid>)"),
            ("shard", Some("<i/n>"), "prefer tasks hashing to shard i of n"),
        ]],
        run: worker_cmd,
        stage_summary: true,
    },
    Command {
        name: "campaign-status",
        summary: "read-only campaign inspector: task states, live vs stale claims, dedupe hits",
        positional: Some("<dir>"),
        flags: &[&[FLEET_FLAGS[1]]],
        run: campaign_status,
        stage_summary: false,
    },
    Command {
        name: "top",
        summary: "live fleet view: worker liveness, campaign progress, merged hotspots, stragglers",
        positional: Some("<dir>"),
        flags: &[FLEET_FLAGS, &[
            ("refresh-secs", Some("<s>"), "repaint period (default 2.0)"),
            ("once", None, "render once and exit"),
            ("json", None, "print one machine-readable snapshot (docs/observability.md) and exit"),
        ]],
        run: top_cmd,
        stage_summary: false,
    },
    Command {
        name: "fleet-export",
        summary: "merge worker telemetry shards into fleet metrics, health, and a Perfetto trace",
        positional: Some("<dir>"),
        flags: &[FLEET_FLAGS, &[("out", Some("<dir>"), "output dir (default <dir>/fleet/export)")]],
        run: fleet_export_cmd,
        stage_summary: false,
    },
    Command {
        name: "dag-chaos",
        summary: "multi-process crash matrix: survivors must finish with a byte-identical report",
        positional: None,
        flags: &[&[
            ("dir", Some("<dir>"), "work dir (default a temp dir)"),
            ("procs", Some("<n>"), "workers per cell, at least 2 (default 3)"),
            ("keep", None, "keep the work dir"),
        ]],
        run: dag_chaos,
        stage_summary: true,
    },
    Command {
        name: "serve",
        summary: "run the streaming service over a paced simulated feed, one line per verdict",
        positional: None,
        flags: &[STREAM_FLAGS, &[
            ("poison-frac", Some("<0..1>"), "fraction of sessions wearing a physical trigger"),
        ]],
        run: serve_cmd,
        stage_summary: true,
    },
    Command {
        name: "serve-chaos",
        summary: "transport-fault matrix at 1 and 4 workers; nonzero exit on any failing cell",
        positional: None,
        flags: &[&[
            ("cells", Some("<csv>"), "cells to run (default the full matrix)"),
            ("seed", Some("<n>"), "traffic seed (default 7)"),
        ]],
        run: serve_chaos_cmd,
        stage_summary: true,
    },
    Command {
        name: "loadgen",
        summary: "replay seeded sensor streams; write the latency report",
        positional: None,
        flags: &[STREAM_FLAGS, &[
            ("paced", None, "honour arrival times instead of a firehose"),
            ("out", Some("<dir>"), "report dir (default loadgen-results)"),
            ("poison-frac", Some("<0..1>"), "fraction of sessions wearing a physical trigger"),
            ("profile", Some("<path>"), "baseline from `mmwave profile`; runs the health monitor"),
            ("fail-on-alarm", None, "nonzero exit if any monitor alert fired (needs --profile)"),
        ]],
        run: loadgen_cmd,
        stage_summary: true,
    },
    Command {
        name: "profile",
        summary: "capture the model-health reference baseline from a clean loadgen run",
        positional: None,
        flags: &[STREAM_FLAGS, &[
            ("paced", None, "honour arrival times instead of a firehose"),
            ("out", Some("<path>"), "default monitor_profile.json"),
        ]],
        run: profile_cmd,
        stage_summary: true,
    },
];

/// A command's argv, checked against its table entry.
struct Args {
    cmd: &'static Command,
    values: BTreeMap<&'static str, String>,
    switches: BTreeSet<&'static str>,
    positional: Option<String>,
}

impl Args {
    fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, String> {
        let mut args =
            Args { cmd, values: BTreeMap::new(), switches: BTreeSet::new(), positional: None };
        let mut last_switch = None;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let after_switch = last_switch.take();
            let Some(name) = arg.strip_prefix("--") else {
                if cmd.positional.is_some() && args.positional.is_none() {
                    args.positional = Some(arg.clone());
                    continue;
                }
                return Err(match after_switch {
                    Some(switch) => format!("--{switch} takes no value, got `{arg}`"),
                    None => format!("`{}` takes no argument `{arg}`", cmd.name),
                });
            };
            let &(name, value, _) = cmd
                .flag(name)
                .ok_or_else(|| format!("unknown flag --{name} for `{}`", cmd.name))?;
            if args.values.contains_key(name) || args.switches.contains(name) {
                return Err(format!("--{name} given twice"));
            }
            match value {
                None => {
                    args.switches.insert(name);
                    last_switch = Some(name);
                }
                Some(placeholder) => match it.next() {
                    Some(v) if !v.starts_with("--") => {
                        args.values.insert(name, v.clone());
                    }
                    _ => return Err(format!("--{name} needs a value {placeholder}")),
                },
            }
        }
        Ok(args)
    }

    /// Whether the switch `--name` was given. A flag outside the
    /// command's table never was: the parser refuses it.
    fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The raw value of `--name`, if given.
    fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The raw value of the required flag `--name`.
    fn required(&self, name: &str) -> Result<&str, String> {
        self.text(name).ok_or_else(|| format!("{} needs --{name}", self.cmd.name))
    }

    /// `--name` through `parse`: `None` when absent, an error naming the
    /// flag and `want` when the parse rejects the value.
    fn get<T>(
        &self,
        name: &str,
        want: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.text(name)
            .map(|raw| parse(raw).ok_or_else(|| format!("--{name} needs {want}, got `{raw}`")))
            .transpose()
    }

    /// The positional argument, required.
    fn required_positional(&self) -> Result<&str, String> {
        self.positional.as_deref().ok_or_else(|| {
            format!("{} needs {}", self.cmd.name, self.cmd.positional.unwrap_or("an argument"))
        })
    }
}

/// Any value of a `FromStr` type.
fn any<T: std::str::FromStr>(raw: &str) -> Option<T> {
    raw.parse::<T>().ok()
}

/// A finite number.
fn finite(raw: &str) -> Option<f64> {
    any::<f64>(raw).filter(|v| v.is_finite())
}

/// A fraction in `[0, 1]`.
fn unit_fraction(raw: &str) -> Option<f64> {
    any::<f64>(raw).filter(|v| (0.0..=1.0).contains(v))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command `{name}`");
        print_usage();
        return ExitCode::FAILURE;
    };
    // Flag errors surface before the logger is configured, so they go to
    // bare stderr.
    let args = match Args::parse(cmd, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage_of(cmd));
            return ExitCode::FAILURE;
        }
    };
    let code = match configure(&args).and_then(|()| (cmd.run)(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cmd.stage_summary {
        // End of run: emit the Summary event, flush every sink, and show
        // the per-stage wall-time / throughput table.
        let table = telemetry::finish();
        if !args.switch("quiet") {
            println!("\n-- stage-time summary --");
            print!("{table}");
        }
    }
    code
}

/// Installs telemetry (the `MMWAVE_*` environment, overridden by the
/// global flags) and pins the `mmwave-exec` worker count from
/// `--workers`. Without `--workers` the pool resolves its own default
/// (`MMWAVE_WORKERS`, else all cores). Results are byte-identical for
/// every worker count; the flag only trades wall time for cores.
fn configure(args: &Args) -> Result<(), String> {
    let mut config = telemetry::TelemetryConfig::from_env(telemetry::Level::Info);
    let level = args.get("log-level", "error|warn|info|debug|trace", any::<telemetry::Level>)?;
    if args.switch("quiet") {
        config.stderr_verbosity = None;
    } else if level.is_some() {
        config.stderr_verbosity = level;
    }
    let sinks = [("metrics-out", &mut config.metrics_out), ("trace-out", &mut config.trace_out)];
    for (flag, out) in sinks {
        if let Some(path) = args.text(flag) {
            *out = Some(path).filter(|p| !p.is_empty()).map(PathBuf::from);
        }
    }
    let want = format!("an integer from 1 to {}", exec::MAX_WORKERS);
    let workers = args.get("workers", &want, exec::parse_workers)?;
    telemetry::configure(&config)
        .map_err(|e| format!("cannot open the metrics or trace file: {e}"))?;
    if let Some(n) = workers {
        exec::configure_workers(n);
    }
    Ok(())
}

/// The usage block of one command, generated from its table entry.
fn usage_of(cmd: &Command) -> String {
    let head = [cmd.name, cmd.positional.unwrap_or_default()].join(" ");
    let mut out = format!("  {}\n      {}\n", head.trim_end(), cmd.summary);
    for flag in cmd.flags.iter().flat_map(|g| g.iter()) {
        out.push_str(&flag_line(flag));
    }
    out
}

fn flag_line(&(name, value, help): &Flag) -> String {
    let spec = format!("--{name} {}", value.unwrap_or_default());
    format!("      {spec:<30} {help}\n")
}

fn print_usage() {
    let mut out = String::from("usage: mmwave <command> [flags]\n\ncommands:\n");
    for cmd in COMMANDS {
        out.push_str(&usage_of(cmd));
    }
    out.push_str("\nglobal flags, accepted by every command:\n");
    for flag in GLOBAL_FLAGS {
        out.push_str(&flag_line(flag));
    }
    out.push_str(
        "\nenvironment knobs (MMWAVE_SERVE_*, MMWAVE_MONITOR_*, ...) are listed in README.md\n",
    );
    eprint!("{out}");
}

fn parse_activity(s: &str) -> Option<Activity> {
    match s {
        "push" => Some(Activity::Push),
        "pull" => Some(Activity::Pull),
        "left" => Some(Activity::LeftSwipe),
        "right" => Some(Activity::RightSwipe),
        "cw" => Some(Activity::Clockwise),
        "acw" => Some(Activity::Anticlockwise),
        _ => None,
    }
}

fn site_labels() -> String {
    SiteId::ALL
        .iter()
        .map(|s| s.label().replace(' ', "-"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_site(s: &str) -> Option<SiteId> {
    SiteId::ALL.iter().copied().find(|site| {
        site.label().replace(' ', "-") == s || site.label() == s
    })
}

fn capture(args: &Args) -> CommandResult {
    let activity = args
        .get("activity", "push|pull|left|right|cw|acw", parse_activity)?
        .unwrap_or(Activity::Push);
    let distance =
        args.get("distance", "a positive distance in m", parse_positive_f64)?.unwrap_or(1.2);
    let angle = args.get("angle", "an angle in degrees", finite)?.unwrap_or(0.0);
    let trigger_site =
        args.get("trigger", &format!("a body site ({})", site_labels()), parse_site)?;

    telemetry::info!("capturing {activity} at {distance} m / {angle} deg");
    let capturer = Capturer::new(CaptureConfig::fast());
    let sampler =
        ActivitySampler::new(Participant::average(), 32, capturer.config().frame_rate);
    let seq = sampler.sample(activity, &SampleVariation::nominal());
    let plan = trigger_site.map(|site| TriggerPlan {
        attachment: TriggerAttachment::new(Trigger::aluminum_2x2()),
        site,
    });
    let out = capturer.capture(
        &seq,
        Placement::new(distance, angle),
        &Environment::hallway(),
        plan.as_ref(),
        42,
    );
    println!("{activity} at {distance} m / {angle} deg — mid-gesture DRAI:");
    println!("{}", out.clean.frame(16).to_ascii());
    if let Some(trig) = out.triggered {
        println!("same frame with the trigger worn:");
        println!("{}", trig.frame(16).to_ascii());
        println!("mean per-frame L2 change: {:.4}", out.clean.mean_l2_distance(&trig));
    }
    Ok(ExitCode::SUCCESS)
}

fn train(args: &Args) -> CommandResult {
    let reps = args.get("reps", "a positive integer", parse_positive)?.unwrap_or(1);
    let epochs = args.get("epochs", "a positive integer", parse_positive)?.unwrap_or(20);
    let cfg = PrototypeConfig::fast();
    let gen = DatasetGenerator::new(cfg.clone());
    let mut spec = DatasetSpec::training(reps);
    spec.participants.truncate(1);
    telemetry::info!("generating {} samples", spec.total_samples());
    let data = gen.generate(&spec, 42);
    let (train, test) = data.split_stratified(0.25, 7);
    telemetry::info!("training on {} samples for {epochs} epochs", train.len());
    let mut model = CnnLstm::new(&cfg, 3);
    let stats = Trainer::new(TrainerConfig { epochs, ..TrainerConfig::fast() })
        .fit(&mut model, &train);
    let last = stats.last().expect("nonempty stats");
    println!("final train loss {:.3}, accuracy {:.1}%", last.loss, 100.0 * last.accuracy);
    let eval = mmwave_har_backdoor::har::eval::evaluate(&model, &test);
    println!("test accuracy {:.1}%", 100.0 * eval.accuracy);
    println!("{}", eval.confusion);
    Ok(ExitCode::SUCCESS)
}

/// The attack flags as one `"attack"` DAG task. The task id encodes every
/// flag that shapes the result, so a repeated flag set finds its task.
fn attack_task_from_flags(args: &Args) -> Result<TaskNode, String> {
    let rate = args
        .get("rate", "a number in (0, 1]", |raw| any::<f64>(raw).filter(|r| *r > 0.0 && *r <= 1.0))?
        .unwrap_or(0.4);
    let frames = args.get("frames", "a non-negative integer", parse_count)?.unwrap_or(8);
    let scenario = args
        .get("scenario", &SCENARIOS.join("|"), |s| SCENARIOS.into_iter().find(|&v| v == s))?
        .unwrap_or("push-pull");
    let scale = if args.switch("fast") { "fast" } else { "smoke" };
    let id = format!("attack-{scenario}-r{rate}-f{frames}-{scale}");
    Ok(dag::attack_task(&id, scenario, rate, frames, ATTACK_SEED, scale))
}

/// Runs one attack task through the campaign DAG in `dir`: saves a new
/// one-task campaign, or appends the task to the campaign already there
/// unless it holds the task, then drains the directory in-process and
/// prints the task's metrics and the worker's tally. A task that already
/// completed executes nothing.
fn run_attack_task(dir: &Path, task: TaskNode) -> ExitCode {
    let mut graph = match CampaignDag::load(dir) {
        Ok(graph) => graph,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            if dir.join("journal.jsonl").exists() {
                eprintln!(
                    "error: `{}` holds a legacy attack journal (journal.jsonl) from \
                     before campaign DAGs; its results are not replayed. Move it aside \
                     or resume into a new directory",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            CampaignDag::new("attack")
        }
        Err(e) => {
            telemetry::error!("cannot load the campaign in `{}`: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if graph.task(&task.id).is_none() {
        graph.tasks.push(task.clone());
        if let Err(e) = graph.save(dir) {
            telemetry::error!("cannot save the campaign in `{}`: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let config = dagworker::WorkerConfig::from_env();
    let summary = match dagworker::run_worker(dir, &config, &dagworker::PipelineExecutor) {
        Ok(summary) => summary,
        Err(e) => {
            telemetry::error!("campaign worker failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = dag::load_output(dir, &task.id).and_then(|output| {
        serde_json::from_value::<AttackMetrics>(output).map_err(io::Error::other)
    });
    let code = match metrics {
        Ok(metrics) => {
            println!("{metrics}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            let reason = mmwave_har_backdoor::store::load_json::<dag::TaskFailure>(
                &dag::paths::failed(dir, &task.id),
            )
            .map(|loaded| loaded.value.error)
            .unwrap_or_else(|_| e.to_string());
            telemetry::error!("attack `{}` failed: {reason}", task.id);
            ExitCode::FAILURE
        }
    };
    println!(
        "attack: executed {}, deduped {}, reclaimed {}, failed {}",
        summary.executed, summary.deduped, summary.reclaimed, summary.failed
    );
    code
}

/// Runs `task` as a one-task campaign in a throwaway directory.
fn run_attack_task_once(task: TaskNode) -> ExitCode {
    let dir = std::env::temp_dir().join(format!("mmwave_attack_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let code = run_attack_task(&dir, task);
    std::fs::remove_dir_all(&dir).ok();
    code
}

fn attack(args: &Args) -> CommandResult {
    let task = attack_task_from_flags(args)?;
    telemetry::info!("running {} (this trains a surrogate)", task.id);
    Ok(match args.text("resume") {
        Some(dir) => run_attack_task(Path::new(dir), task),
        None => run_attack_task_once(task),
    })
}

/// The perf regression gate: `mmwave perf-check <results-dir> --baseline
/// <dir>` compares the `BENCH_<workload>.json` perfbench run sets that
/// `scripts/ab_pairs.sh` wrote (see `mmwave-bench::perfcheck`) and exits
/// nonzero when any workload regressed or the sets cannot be compared.
fn perf_check(args: &Args) -> CommandResult {
    use mmwave_har_backdoor::bench::perfcheck;
    let results_dir = args.required_positional()?;
    let baseline_dir = args.required("baseline")?;
    Ok(match perfcheck::run(Path::new(results_dir), Path::new(baseline_dir)) {
        Ok(report) => {
            println!("{report}");
            if report.has_regressions() { ExitCode::FAILURE } else { ExitCode::SUCCESS }
        }
        Err(e) => {
            eprintln!("error: perf-check failed: {e}");
            ExitCode::FAILURE
        }
    })
}

/// A self-contained smoke-scale run that exercises every pipeline stage —
/// frame synthesis, the DSP chain, SHAP scoring, training, and a campaign
/// task — so `mmwave demo --metrics-out events.jsonl` yields a metrics
/// file that demonstrates the full event vocabulary in under a minute.
fn demo(_args: &Args) -> CommandResult {
    telemetry::info!("running the smoke-scale demo attack");
    let task = dag::attack_task("demo-attack", "push-pull", 0.5, 4, ATTACK_SEED, "smoke");
    Ok(run_attack_task_once(task))
}

/// `mmwave campaign-init`: writes a campaign DAG into a directory for
/// `mmwave worker` processes to drain.
fn campaign_init(args: &Args) -> CommandResult {
    let dir = args.required("dir")?;
    let preset = args
        .get("preset", "demo|sweep", |s| ["demo", "sweep"].into_iter().find(|&p| p == s))?
        .unwrap_or("demo");
    let graph = if preset == "demo" {
        dag::demo_dag()
    } else {
        // A small paper-shaped sweep: two scenarios at two injection
        // rates. Smoke scale, so `mmwave worker` drains it in minutes.
        let mut points = Vec::new();
        for scenario in ["push-pull", "left-right"] {
            for rate in [0.2_f64, 0.4] {
                points.push((
                    format!("{scenario}-r{:02.0}", rate * 100.0),
                    scenario.to_string(),
                    rate,
                    8usize,
                    42u64,
                ));
            }
        }
        dag::attack_sweep_dag("sweep", &points)
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        telemetry::error!("cannot create campaign dir `{dir}`: {e}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(match graph.save(Path::new(dir)) {
        Ok(()) => {
            println!(
                "campaign `{}` initialised in {dir} ({} tasks)",
                graph.name,
                graph.tasks.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            telemetry::error!("cannot save the campaign DAG: {e}");
            ExitCode::FAILURE
        }
    })
}

/// `--ttl`, else `MMWAVE_CLAIM_TTL_SECS`, else the default claim TTL.
fn ttl_flag(args: &Args) -> Result<Duration, String> {
    let ttl = args.get("ttl", "a positive number of seconds", dagworker::parse_claim_ttl)?;
    Ok(ttl.unwrap_or_else(dagworker::claim_ttl_from_env))
}

/// `mmwave worker`: the claim/execute loop over a campaign DAG directory.
/// Safe to run N at a time; exits once every task is done or failed.
fn worker_cmd(args: &Args) -> CommandResult {
    let dir = args.required("dir")?;
    let ttl = args.get("ttl", "a positive number of seconds", dagworker::parse_claim_ttl)?;
    let poll =
        args.get("poll-ms", "a positive integer", |raw| any::<u64>(raw).filter(|&ms| ms > 0))?;
    let shard = args.get("shard", "i/n with i < n", dagworker::parse_shard)?;
    let mut config = dagworker::WorkerConfig::from_env();
    if let Some(id) = args.text("worker-id") {
        config.worker_id = id.to_string();
    }
    config.ttl = ttl.unwrap_or(config.ttl);
    config.poll = poll.map_or(config.poll, Duration::from_millis);
    config.shard = shard.or(config.shard);
    // With fleet shipping on, every worker also streams its span events to
    // a per-worker trace file beside its shard, so `fleet-export` can
    // stitch the whole fleet into one Perfetto timeline.
    if fleet::ship_interval().is_some() {
        match telemetry::TraceSink::create(fleet::paths::trace(
            Path::new(dir),
            &config.worker_id,
        )) {
            Ok(sink) => telemetry::global().add_sink(Box::new(sink)),
            Err(e) => telemetry::warn!("cannot open the fleet trace file: {e}"),
        }
    }
    telemetry::info!(
        "worker `{}` draining campaign {dir} (ttl {:?})",
        config.worker_id,
        config.ttl
    );
    Ok(match dagworker::run_worker(Path::new(dir), &config, &dagworker::PipelineExecutor) {
        Ok(summary) => {
            println!(
                "worker `{}`: executed {}, deduped {}, reclaimed {}, failed {}",
                config.worker_id,
                summary.executed,
                summary.deduped,
                summary.reclaimed,
                summary.failed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            telemetry::error!("worker failed: {e}");
            ExitCode::FAILURE
        }
    })
}

/// `mmwave campaign-status <dir>`: read-only campaign inspector. Scans
/// task records and claim files without taking any locks or writing
/// anything, so it is safe to run beside active workers.
fn campaign_status(args: &Args) -> CommandResult {
    use mmwave_har_backdoor::backdoor::dag::TaskState;
    let dir = Path::new(args.required_positional()?);
    let ttl = ttl_flag(args)?;
    let graph = dag::CampaignDag::load(dir)
        .map_err(|e| format!("cannot load the campaign DAG: {e}"))?;
    let status =
        dag::scan(dir, &graph, ttl).map_err(|e| format!("cannot scan the campaign dir: {e}"))?;
    let (done, failed, claimed, pending) = status.counts();
    println!(
        "campaign `{}` in {}: {done}/{} done, {failed} failed, {claimed} claimed, {pending} pending",
        graph.name,
        dir.display(),
        graph.tasks.len()
    );
    // Telemetry shards attribute each claim's owner to the last task it
    // finished; a worker that never shipped simply gets no note.
    let last_tasks: BTreeMap<String, String> =
        fleet::load_shards(dir)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|s| s.last_task.map(|t| (s.worker_id, t)))
            .collect();
    let mut distinct_keys = BTreeSet::new();
    let mut done_records = 0usize;
    for (id, state) in &status.tasks {
        match state {
            TaskState::Done => {
                let mut key_note = String::new();
                if let Ok(loaded) = mmwave_har_backdoor::store::load_json::<dag::TaskRecord>(
                    &dag::paths::done(dir, id),
                ) {
                    done_records += 1;
                    key_note = format!("  artifact {}", loaded.value.artifact_key);
                    distinct_keys.insert(loaded.value.artifact_key);
                }
                println!("  [done    ] {id}{key_note}");
            }
            TaskState::Failed => {
                let reason = mmwave_har_backdoor::store::load_json::<dag::TaskFailure>(
                    &dag::paths::failed(dir, id),
                )
                .map(|loaded| loaded.value.error)
                .unwrap_or_else(|_| "failure record unreadable".to_string());
                println!("  [failed  ] {id}  {reason}");
            }
            TaskState::Claimed { owner, age, stale } => {
                let owner_note = owner
                    .as_ref()
                    .map(|o| format!("{} pid {}", o.worker_id, o.pid))
                    .unwrap_or_else(|| "unknown owner".to_string());
                let last_note = owner
                    .as_ref()
                    .and_then(|o| last_tasks.get(&o.worker_id))
                    .map(|t| format!(", last completed {t}"))
                    .unwrap_or_default();
                println!(
                    "  [claimed ] {id}  {owner_note}, heartbeat {:.1}s ago ({}){last_note}",
                    age.as_secs_f64(),
                    if *stale { "STALE, reclaim-eligible" } else { "live" }
                );
            }
            TaskState::Pending => println!("  [pending ] {id}"),
        }
    }
    if done_records > 0 {
        println!(
            "dedupe: {done_records} done tasks share {} artifacts ({} hits)",
            distinct_keys.len(),
            done_records - distinct_keys.len()
        );
    }
    println!(
        "report: {}",
        if dag::paths::report(dir).exists() { "present" } else { "not yet written" }
    );
    Ok(ExitCode::SUCCESS)
}

/// Shared argument parsing for the fleet observers: the campaign dir
/// (positional or `--dir`), the claim TTL, and the straggler factor.
fn fleet_args(args: &Args) -> Result<(PathBuf, Duration, f64), String> {
    let dir = match (args.positional.as_deref(), args.text("dir")) {
        (Some(dir), None) | (None, Some(dir)) => PathBuf::from(dir),
        _ => return Err(format!("{} needs exactly one <dir> argument", args.cmd.name)),
    };
    let factor = args.get("factor", "a positive number", parse_positive_f64)?.unwrap_or(4.0);
    Ok((dir, ttl_flag(args)?, factor))
}

/// One fleet observation as the `mmwave top --json` snapshot (schema in
/// docs/observability.md §10; bump `schema_version` on incompatible
/// changes), plus the merged hotspot table the human view appends.
fn top_snapshot(
    dir: &Path,
    ttl: Duration,
    factor: f64,
) -> Result<(serde_json::Value, String), String> {
    let (status, shards, merged, health) =
        fleet::observe_fleet(dir, ttl, factor).map_err(|e| e.to_string())?;
    let (done, failed, claimed, pending) = status.counts();
    let metrics = &merged.merged;
    let counters: BTreeMap<&String, &u64> = metrics
        .counters
        .iter()
        .filter(|(k, _)| {
            ["dag.", "store.claim.", "fleet.", "serve.", "monitor."]
                .iter()
                .any(|prefix| k.starts_with(prefix))
        })
        .collect();
    let gauges: BTreeMap<&String, f64> =
        metrics.gauges.iter().map(|(k, g)| (k, g.value)).collect();
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    // Serve robustness digest: quarantine, sequencing, lifecycle, and
    // breaker health at a glance without fishing through raw metrics.
    let breaker_state =
        metrics.gauges.get("serve.breaker_state").map(|g| g.value as u64).unwrap_or(0);
    let serve_digest = serde_json::json!({
        "ingested": counter("serve.ingested"),
        "rejected": counter("serve.rejected"),
        "rejected_shape": counter("serve.rejected_shape"),
        "rejected_nonfinite": counter("serve.rejected_nonfinite"),
        "seq_gaps": counter("serve.seq_gaps"),
        "seq_dups": counter("serve.seq_dups"),
        "seq_restarts": counter("serve.seq_restarts"),
        "filled_frames": counter("serve.filled_frames"),
        "sessions_evicted": counter("serve.sessions_evicted"),
        "sessions_reopened": counter("serve.sessions_reopened"),
        "verdicts_failed": counter("serve.verdicts_failed"),
        "breaker_opened": counter("serve.breaker_opened"),
        "breaker_state": breaker_state,
        "breaker_state_label": match breaker_state {
            0 => "closed",
            1 => "half-open",
            _ => "open",
        },
    });
    let alerts_by_kind: BTreeMap<&str, u64> = metrics
        .counters
        .iter()
        .filter_map(|(k, &v)| k.strip_prefix("monitor.alerts.").map(|kind| (kind, v)))
        .collect();
    let monitor_gauges: BTreeMap<&String, f64> =
        gauges.iter().filter(|(k, _)| k.starts_with("monitor.")).map(|(k, v)| (*k, *v)).collect();
    let snapshot = serde_json::json!({
        "schema_version": 2,
        "campaign": {
            "dir": dir.display().to_string(),
            "tasks_total": status.tasks.len(),
            "done": done,
            "failed": failed,
            "claimed": claimed,
            "pending": pending,
            "resolved": status.all_resolved(),
        },
        "workers_shipped": shards.len(),
        "health": health,
        "metrics": {
            "counters": counters,
            "gauges": gauges,
        },
        "serve": serve_digest,
        "monitor": {
            "verdicts": counter("monitor.verdicts"),
            "windows": counter("monitor.windows"),
            "alerts": counter("monitor.alerts"),
            "alerts_by_kind": alerts_by_kind,
            "gauges": monitor_gauges,
        },
    });
    Ok((snapshot, telemetry::merged_profile(metrics).hotspot_table(8)))
}

/// Renders one `mmwave top` frame from a [`top_snapshot`].
fn render_top(snapshot: &serde_json::Value, hotspots: &str, ttl: Duration) -> String {
    use serde_json::Value;
    use std::fmt::Write as _;
    let int = |v: &Value| v.as_u64().unwrap_or(0);
    let entries = |v: &Value| v.as_object().cloned().unwrap_or_default();
    let campaign = &snapshot["campaign"];
    let health = &snapshot["health"];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet @ {}: {}/{} done, {} failed, {} claimed, {} pending",
        campaign["dir"].as_str().unwrap_or_default(),
        int(&campaign["done"]),
        int(&campaign["tasks_total"]),
        int(&campaign["failed"]),
        int(&campaign["claimed"]),
        int(&campaign["pending"])
    );
    let _ = writeln!(
        out,
        "workers: {} shards, liveness threshold {}ms (factor {:.1}, ttl floor {:.0}s)",
        int(&snapshot["workers_shipped"]),
        int(&health["heartbeat_threshold_ms"]),
        health["straggler_factor"].as_f64().unwrap_or_default(),
        ttl.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:<7} {:>8} {:>8} {:>5} {:>5} {:>6}  last task",
        "worker", "pid", "status", "hb-age", "ship-age", "done", "fail", "dedup"
    );
    let age = |v: &Value| {
        v.as_u64().map_or_else(|| "-".to_string(), |ms| format!("{:.1}s", ms as f64 / 1e3))
    };
    let mut stragglers = 0usize;
    for w in health["workers"].as_array().into_iter().flatten() {
        let status = match w["status"].as_str() {
            Some("Stale") => "STALE",
            Some("Dead") => "DEAD",
            Some("Exited") => "exited",
            _ => "active",
        };
        let straggler_note = if w["straggler"].as_bool() == Some(true) {
            stragglers += 1;
            telemetry::counter("fleet.straggler", 1);
            let reasons: Vec<&str> =
                w["reasons"].as_array().into_iter().flatten().filter_map(Value::as_str).collect();
            format!("  <- STRAGGLER: {}", reasons.join("; "))
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:<7} {:>8} {:>8} {:>5} {:>5} {:>6}  {}{straggler_note}",
            w["worker_id"].as_str().unwrap_or_default(),
            int(&w["pid"]),
            status,
            age(&w["heartbeat_age_ms"]),
            age(&w["ship_age_ms"]),
            int(&w["tasks_done"]),
            int(&w["tasks_failed"]),
            int(&w["tasks_deduped"]),
            w["last_task"].as_str().unwrap_or("-"),
        );
    }
    if stragglers > 0 {
        let _ = writeln!(out, "stragglers: {stragglers} worker(s) flagged");
    }
    let counters = entries(&snapshot["metrics"]["counters"]);
    if !counters.is_empty() {
        let _ = writeln!(out, "merged counters:");
        for (k, v) in &counters {
            let _ = writeln!(out, "  {k:<28} {}", int(v));
        }
    }
    // Service saturation is a gauge, not a counter: surface the latest
    // per-worker `serve.*` gauges (queue depth, anything else the service
    // publishes) so a backlogged server is visible fleet-wide.
    let serve_gauges: Vec<_> = entries(&snapshot["metrics"]["gauges"])
        .into_iter()
        .filter(|(k, _)| k.starts_with("serve."))
        .collect();
    if !serve_gauges.is_empty() {
        let _ = writeln!(out, "serve gauges:");
        for (k, g) in serve_gauges {
            // The breaker gauge is an enum, not a magnitude: decode it.
            let label = match k.as_str() {
                "serve.breaker_state" => format!(
                    "  ({})",
                    snapshot["serve"]["breaker_state_label"].as_str().unwrap_or_default()
                ),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {k:<28} {:.0}{label}", g.as_f64().unwrap_or_default());
        }
    }
    // Model-health gauges are small fractions (drift scores, tail
    // mass), so they print with precision where serve gauges round.
    let monitor_gauges = entries(&snapshot["monitor"]["gauges"]);
    if !monitor_gauges.is_empty() {
        let _ = writeln!(out, "monitor gauges:");
        for (k, g) in &monitor_gauges {
            let _ = writeln!(out, "  {k:<28} {:.4}", g.as_f64().unwrap_or_default());
        }
    }
    if !hotspots.trim().is_empty() {
        let _ = writeln!(out, "merged hotspots:");
        out.push_str(hotspots);
    }
    out
}

/// `mmwave top <dir>`: live fleet view over a campaign directory. Reads
/// claim heartbeats, telemetry shards, and the DAG state; never writes
/// into the campaign dir, so it is safe beside running workers.
fn top_cmd(args: &Args) -> CommandResult {
    let (dir, ttl, factor) = fleet_args(args)?;
    let refresh = args
        .get("refresh-secs", "a positive number of seconds", parse_positive_f64)?
        .unwrap_or(2.0);
    loop {
        let (snapshot, hotspots) = match top_snapshot(&dir, ttl, factor) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot observe the fleet: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        if args.switch("json") {
            // One-shot machine-readable snapshot: no repaint loop, no ANSI.
            let json = serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?;
            println!("{json}");
            return Ok(ExitCode::SUCCESS);
        }
        let frame = render_top(&snapshot, &hotspots, ttl);
        if args.switch("once") {
            print!("{frame}");
            return Ok(ExitCode::SUCCESS);
        }
        // Clear the terminal and repaint, `watch`-style.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        io::stdout().flush().ok();
        if snapshot["campaign"]["resolved"].as_bool() == Some(true) {
            println!("campaign resolved; exiting");
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_secs_f64(refresh));
    }
}

/// `mmwave fleet-export <dir>`: merges every worker's telemetry shard
/// into durable artifacts under `--out` (default `<dir>/fleet/export`):
/// checksummed merged metrics and health reports, plus a stitched
/// Perfetto trace with one process lane per worker.
fn fleet_export_cmd(args: &Args) -> CommandResult {
    let (dir, ttl, factor) = fleet_args(args)?;
    let out = args.text("out").map(PathBuf::from).unwrap_or_else(|| fleet::paths::export_dir(&dir));
    Ok(match fleet::export_fleet(&dir, &out, ttl, factor) {
        Ok(summary) => {
            println!(
                "fleet-export: merged {} worker shard(s) ({} counters, {} trace events)",
                summary.workers, summary.counters, summary.trace_events
            );
            println!("  metrics  {}", summary.metrics_path.display());
            println!("  health   {}", summary.health_path.display());
            println!("  trace    {}", summary.trace_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: fleet-export failed: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Parses the stream-shape flags shared by `serve`, `loadgen`, and
/// `profile` on top of per-command defaults.
fn loadgen_config(
    args: &Args,
    defaults: serve::LoadgenConfig,
) -> Result<serve::LoadgenConfig, String> {
    let (count, number) = ("a positive integer", "a positive number");
    let fraction = "a number in [0, 1]";
    Ok(serve::LoadgenConfig {
        sessions: args.get("sessions", count, parse_positive)?.unwrap_or(defaults.sessions),
        seconds: args.get("seconds", number, parse_positive_f64)?.unwrap_or(defaults.seconds),
        fps: args.get("fps", number, parse_positive_f64)?.unwrap_or(defaults.fps),
        jitter: args.get("jitter", fraction, unit_fraction)?.unwrap_or(defaults.jitter),
        burst: args.get("burst", count, parse_positive)?.unwrap_or(defaults.burst),
        seed: args.get("seed", "an integer", any::<u64>)?.unwrap_or(defaults.seed),
        paced: defaults.paced || args.switch("paced"),
        poison_frac: args
            .get("poison-frac", fraction, unit_fraction)?
            .unwrap_or(defaults.poison_frac),
        ..defaults
    })
}

/// `mmwave serve`: the live-service demonstrator. Runs the streaming
/// inference service over a paced, simulated multi-sensor feed and
/// prints one line per verdict plus the closing frame accounting;
/// `loadgen` is the throughput harness over the same machinery.
fn serve_cmd(args: &Args) -> CommandResult {
    let defaults = serve::LoadgenConfig {
        sessions: 4,
        seconds: 10.0,
        paced: true,
        ..serve::LoadgenConfig::default()
    };
    let lg = loadgen_config(args, defaults)?;
    let serve_cfg = serve::ServeConfig::from_env();
    let proto = PrototypeConfig::fast();
    println!(
        "serve: {} session(s) at {:.1} fps for {:.0}s (clip {} frames, ring {}, batch <= {})",
        lg.sessions,
        lg.fps,
        lg.seconds,
        serve_cfg.clip_len,
        serve_cfg.ring_capacity,
        serve_cfg.max_batch
    );
    let run = serve::loadgen::run_with(&lg, serve_cfg, &proto, Environment::hallway(), |v| {
        println!(
            "  s{:<3} clip {:<3} [{:>4}..{:>4}]  {:<14} p={:.2}  defense={:.2}  {:>7.1}ms",
            v.session,
            v.clip_index,
            v.first_seq,
            v.last_seq,
            v.activity,
            v.confidence,
            v.defense_score,
            v.latency_ms
        );
    });
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            telemetry::error!("serve failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "drained: {} verdicts from {} session(s); {} frames ingested, {} shed, {} still buffered",
        report.verdicts,
        report.sessions_served,
        report.ingested,
        report.shed_frames,
        report.in_flight_frames
    );
    if !report.is_clean() {
        telemetry::error!(
            "frame accounting imbalance: {} frame(s) unaccounted",
            report.unaccounted
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `mmwave serve-chaos`: the transport-fault matrix. Every requested
/// cell replays the same seeded traffic through one fault mix at 1 and
/// 4 workers; a cell passes only if the conservation ledger closes
/// (`ingested == inferred + shed + rejected + in_flight`) under both
/// worker counts, the verdict streams are bit-identical, and the
/// fault channel left the ledger evidence it predicts (the clean cell
/// must leave none). Nonzero exit on any failing cell.
fn serve_chaos_cmd(args: &Args) -> CommandResult {
    let cells: Vec<String> = match args.text("cells") {
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        None => serve::chaos::MATRIX_CELLS.iter().map(|s| s.to_string()).collect(),
    };
    if cells.is_empty() {
        return Err("--cells needs at least one cell name".to_string());
    }
    let seed = args.get("seed", "an integer", any::<u64>)?.unwrap_or(7);
    let proto = PrototypeConfig::fast();
    println!(
        "serve-chaos: {} cell(s) [{}], seed {seed}, 1-vs-4 worker determinism",
        cells.len(),
        cells.join(",")
    );
    let reports =
        match serve::chaos::run_matrix(&cells, seed, &proto, &Environment::hallway()) {
            Ok(r) => r,
            Err(e) => {
                telemetry::error!("serve-chaos failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    println!(
        "  {:<9} {:>6} {:>6} {:>5} {:>4} {:>7} {:>5} {:>4} {:>4} {:>5} {:>4} {:>5}  {:<4}",
        "cell", "ingest", "infer", "shed", "rej", "inflght", "verd", "fail", "gaps", "dups",
        "evic", "reopn", "pass"
    );
    let mut failed = 0usize;
    for r in &reports {
        let status = if r.pass {
            "ok".to_string()
        } else {
            failed += 1;
            let mut why = Vec::new();
            if !r.balanced {
                why.push(format!("UNBALANCED ({} unaccounted)", r.unaccounted));
            }
            if !r.deterministic {
                why.push("NONDETERMINISTIC".to_string());
            }
            if !r.note.is_empty() {
                why.push(r.note.clone());
            }
            format!("FAIL: {}", why.join("; "))
        };
        println!(
            "  {:<9} {:>6} {:>6} {:>5} {:>4} {:>7} {:>5} {:>4} {:>4} {:>5} {:>4} {:>5}  {status}",
            r.cell,
            r.ingested,
            r.inferred_frames,
            r.shed_frames,
            r.rejected_frames,
            r.in_flight_frames,
            r.verdicts,
            r.verdicts_failed,
            r.seq_gaps,
            r.seq_dups,
            r.sessions_evicted,
            r.sessions_reopened,
        );
    }
    if failed > 0 {
        telemetry::error!("serve-chaos: {failed}/{} cell(s) failed", reports.len());
        return Ok(ExitCode::FAILURE);
    }
    println!("serve-chaos: all {} cell(s) passed", reports.len());
    Ok(ExitCode::SUCCESS)
}

/// `mmwave loadgen`: replays N seeded sensor streams against a fresh
/// service (firehose by default, `--paced` to honor arrival times) and
/// writes the throughput/latency report as a checksummed artifact.
/// With `--profile <path>` the model-health monitor scores every window
/// against that clean baseline and appends alerts to
/// `<out>/alerts.jsonl`; `--poison-frac <f>` streams physically
/// triggered sessions to exercise it. Nonzero exit if any ingested
/// frame ends up unaccounted, or — under `--fail-on-alarm` — if any
/// alert fired.
fn loadgen_cmd(args: &Args) -> CommandResult {
    use mmwave_har_backdoor::monitor;
    let lg = loadgen_config(args, serve::LoadgenConfig::default())?;
    let serve_cfg = serve::ServeConfig::from_env();
    let proto = PrototypeConfig::fast();
    let out_dir = PathBuf::from(args.text("out").unwrap_or("loadgen-results"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        telemetry::error!("cannot create `{}`: {e}", out_dir.display());
        return Ok(ExitCode::FAILURE);
    }
    let fail_on_alarm = args.switch("fail-on-alarm");
    let reference = match args.text("profile") {
        Some(path) => match monitor::ReferenceProfile::load(Path::new(path)) {
            Ok(p) => Some(p),
            Err(e) => {
                telemetry::error!("cannot load the reference profile `{path}`: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
        None => {
            if fail_on_alarm {
                return Err("--fail-on-alarm needs --profile <path>; without a reference \
                            profile no monitor runs and no alarm could ever fire"
                    .to_string());
            }
            None
        }
    };
    let (report, outcome) = match reference {
        Some(reference) => {
            let mon_cfg = monitor::MonitorConfig::from_env();
            let alerts_path = out_dir.join("alerts.jsonl");
            match monitor::run_monitored(
                &lg,
                serve_cfg,
                &proto,
                Environment::hallway(),
                &serve::ServedModel::seeded(&proto, lg.seed),
                &mon_cfg,
                reference,
                Some(&alerts_path),
            ) {
                Ok(o) => (o.report.clone(), Some((o, alerts_path))),
                Err(e) => {
                    telemetry::error!("monitored loadgen failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => match serve::loadgen::run(&lg, serve_cfg, &proto, Environment::hallway()) {
            Ok(r) => (r, None),
            Err(e) => {
                telemetry::error!("loadgen failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    println!(
        "loadgen: {} session(s) x {:.0}s @ {:.1} fps, burst {}, jitter {:.2} ({})",
        lg.sessions,
        lg.seconds,
        lg.fps,
        lg.burst,
        lg.jitter,
        if lg.paced { "paced" } else { "firehose" }
    );
    println!("  wall            {:.0} ms ({} workers)", report.wall_ms, report.workers);
    println!("  sessions/sec    {:.2}", report.sessions_per_sec);
    println!("  inferences/sec  {:.2}", report.inferences_per_sec);
    println!("  frames/sec      {:.0}", report.frames_per_sec);
    println!(
        "  latency ms      p50 {:.1} / p95 {:.1} / p99 {:.1} / max {:.1}",
        report.latency_p50_ms, report.latency_p95_ms, report.latency_p99_ms, report.latency_max_ms
    );
    println!(
        "  drop rate       {:.2}% ({} of {} frames shed; peak ring {} / queue {})",
        report.drop_rate * 100.0,
        report.shed_frames,
        report.ingested,
        report.peak_ring_depth,
        report.peak_queue_depth
    );
    if lg.poison_frac > 0.0 {
        println!(
            "  poisoned        {} of {} session(s) stream a worn trigger (frac {:.2})",
            report.poisoned_sessions, lg.sessions, lg.poison_frac
        );
    }
    if let Some((outcome, alerts_path)) = &outcome {
        println!(
            "  monitor         {} window(s) scored, {} alert(s) -> {}",
            outcome.windows,
            outcome.alerts.len(),
            alerts_path.display()
        );
        if let Some(d) = &outcome.last_drift {
            println!(
                "  drift           psi {:.4}  conf-tv {:.4}  tail {:.4}  spike {:.4}",
                d.class_psi, d.confidence_tv, d.trigger_tail, d.spike_delta
            );
        }
        for alert in &outcome.alerts {
            println!(
                "  ALERT {:<16} window {:<3} {}",
                alert.kind.name(),
                alert.window_index,
                alert.detail
            );
        }
    }
    let report_path = out_dir.join("loadgen_report.json");
    if let Err(e) = report.save(&report_path) {
        telemetry::error!("cannot save the loadgen report: {e}");
        return Ok(ExitCode::FAILURE);
    }
    println!("  report          {}", report_path.display());
    if !report.is_clean() {
        telemetry::error!(
            "frame accounting imbalance: {} frame(s) unaccounted",
            report.unaccounted
        );
        return Ok(ExitCode::FAILURE);
    }
    if fail_on_alarm {
        if let Some((outcome, _)) = &outcome {
            if !outcome.alerts.is_empty() {
                telemetry::error!(
                    "{} monitor alert(s) fired and --fail-on-alarm is set",
                    outcome.alerts.len()
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `mmwave profile`: captures the model-health reference baseline. Runs
/// the load generator with poisoning forced off (clean by
/// construction), folds every verdict into a [`ReferenceProfile`], and
/// saves it as a checksummed artifact for `mmwave loadgen --profile`
/// and the monitoring engine.
fn profile_cmd(args: &Args) -> CommandResult {
    use mmwave_har_backdoor::monitor;
    let lg = loadgen_config(args, serve::LoadgenConfig::default())?;
    let serve_cfg = serve::ServeConfig::from_env();
    let proto = PrototypeConfig::fast();
    let out = PathBuf::from(args.text("out").unwrap_or("monitor_profile.json"));
    let served = serve::ServedModel::seeded(&proto, lg.seed);
    let (profile, report) =
        match monitor::capture_profile(&lg, serve_cfg, &proto, Environment::hallway(), &served) {
            Ok(r) => r,
            Err(e) => {
                telemetry::error!("profile capture failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    println!(
        "profile: {} verdict(s) from {} session(s) over {} class(es)",
        profile.verdicts, lg.sessions, profile.n_classes
    );
    let rates = profile.class_rates();
    for (i, rate) in rates.iter().enumerate() {
        if *rate > 0.0 {
            let name = if i < Activity::ALL.len() {
                Activity::from_index(i).label()
            } else {
                "?"
            };
            println!("  class {i:<2} ({name:<14}) rate {rate:.3}");
        }
    }
    if !report.is_clean() || report.shed_frames > 0 {
        telemetry::error!(
            "baseline capture was not healthy ({} unaccounted, {} shed); refusing to save a \
             reference that does not represent clean service behavior",
            report.unaccounted,
            report.shed_frames
        );
        return Ok(ExitCode::FAILURE);
    }
    if let Err(e) = profile.save(&out) {
        telemetry::error!("cannot save the reference profile: {e}");
        return Ok(ExitCode::FAILURE);
    }
    println!("  saved           {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// Spawns one `mmwave worker` child over `dir`. Every child gets a pinned
/// envelope git sha and a short claim TTL so the cell's artifacts are
/// byte-deterministic and stale reclaim happens within the test's
/// patience; `envs` adds per-child extras (a crash log, or an armed
/// `MMWAVE_CRASH_AT`).
fn spawn_dag_worker(
    exe: &Path,
    dir: &Path,
    worker_id: &str,
    envs: &[(&str, String)],
) -> io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("worker")
        .arg("--dir")
        .arg(dir)
        .arg("--worker-id")
        .arg(worker_id)
        .arg("--ttl")
        .arg("1")
        .arg("--poll-ms")
        .arg("50")
        .arg("--quiet");
    cmd.env_remove("MMWAVE_CRASH_AT");
    cmd.env_remove("MMWAVE_CRASH_LOG");
    cmd.env_remove("MMWAVE_WORKER_SHARD");
    cmd.env("MMWAVE_GIT_SHA", "chaos");
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.stdout(std::process::Stdio::null());
    cmd.stderr(std::process::Stdio::null());
    cmd.spawn()
}

/// Waits for a child with a wall-clock deadline, killing it on timeout so
/// a wedged worker fails the chaos cell instead of hanging the driver.
fn wait_with_deadline(
    child: &mut std::process::Child,
    deadline: Duration,
) -> io::Result<Option<std::process::ExitStatus>> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if start.elapsed() > deadline {
            child.kill().ok();
            child.wait().ok();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One dag-chaos cell: a fresh campaign, `procs` workers, one of them
/// armed to abort at `point`; the survivors must finish the campaign with
/// a report byte-identical to the uninterrupted reference.
fn dag_chaos_one_point(
    exe: &Path,
    dir: &Path,
    procs: usize,
    point: &str,
    reference_report: &[u8],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create cell dir: {e}"))?;
    dag::demo_dag().save(dir).map_err(|e| format!("cannot init cell dag: {e}"))?;
    let mut children = Vec::with_capacity(procs);
    for i in 0..procs {
        // Worker 0 carries the bomb; the rest run clean.
        let envs: Vec<(&str, String)> = if i == 0 {
            vec![("MMWAVE_CRASH_AT", point.to_string())]
        } else {
            Vec::new()
        };
        let child = spawn_dag_worker(exe, dir, &format!("w{i}"), &envs)
            .map_err(|e| format!("cannot spawn worker {i}: {e}"))?;
        children.push(child);
    }
    let mut survivors_ok = 0usize;
    let mut armed_died = false;
    for (i, child) in children.iter_mut().enumerate() {
        match wait_with_deadline(child, Duration::from_secs(120)) {
            Ok(Some(status)) if status.success() => survivors_ok += 1,
            Ok(Some(_)) if i == 0 => armed_died = true,
            Ok(Some(status)) => return Err(format!("clean worker {i} failed with {status}")),
            Ok(None) => return Err(format!("worker {i} wedged past the deadline")),
            Err(e) => return Err(format!("cannot wait for worker {i}: {e}")),
        }
    }
    // The armed worker only dies if it personally passes the point; losing
    // every claim race is a legitimate (vacuous) outcome, but at least one
    // worker must have finished the campaign cleanly.
    if survivors_ok == 0 {
        return Err("no worker finished the campaign".into());
    }
    let report = std::fs::read(dag::paths::report(dir)).map_err(|e| {
        format!("survivors finished but left no report: {e}")
    })?;
    if report != reference_report {
        return Err("report differs from the uninterrupted single-worker run".into());
    }
    if !armed_died {
        telemetry::debug!("dag-chaos: `{point}` never fired in the armed worker (claim race)");
    }
    Ok(())
}

/// `mmwave dag-chaos`: the multi-process crash matrix over the campaign
/// DAG runtime. A reference single-worker run over the demo DAG records
/// every crash point it passes (`MMWAVE_CRASH_LOG`); then, for each
/// point, a fresh campaign is drained by `--procs` workers with one armed
/// to abort there (`MMWAVE_CRASH_AT`). Survivors must reclaim the dead
/// worker's stale claims and finish with a `report.json` byte-identical
/// to the reference.
fn dag_chaos(args: &Args) -> CommandResult {
    let procs = args
        .get("procs", "an integer >= 2", |raw| any::<usize>(raw).filter(|&n| n >= 2))?
        .unwrap_or(3);
    let root = args.text("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("mmwave_dag_chaos_{}", std::process::id()))
    });
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            telemetry::error!("cannot locate the mmwave binary: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = std::fs::create_dir_all(&root) {
        telemetry::error!("cannot create dag-chaos work dir {}: {e}", root.display());
        return Ok(ExitCode::FAILURE);
    }

    // Reference: one worker, uninterrupted, logging every crash point it
    // passes. Its report is the byte-identity oracle for every cell.
    let ref_dir = root.join("reference");
    let log_path = root.join("crash_points.log");
    telemetry::info!("dag-chaos: reference run in {}", ref_dir.display());
    if let Err(e) = std::fs::create_dir_all(&ref_dir) {
        telemetry::error!("cannot create the reference dir: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Err(e) = dag::demo_dag().save(&ref_dir) {
        telemetry::error!("cannot init the reference dag: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let reference_ok = spawn_dag_worker(
        &exe,
        &ref_dir,
        "ref",
        &[("MMWAVE_CRASH_LOG", log_path.display().to_string())],
    )
    .map_err(|e| e.to_string())
    .and_then(|mut child| {
        match wait_with_deadline(&mut child, Duration::from_secs(120)) {
            Ok(Some(status)) if status.success() => Ok(()),
            Ok(Some(status)) => Err(format!("reference worker failed with {status}")),
            Ok(None) => Err("reference worker wedged past the deadline".to_string()),
            Err(e) => Err(e.to_string()),
        }
    });
    if let Err(e) = reference_ok {
        telemetry::error!("dag-chaos: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let reference_report = match std::fs::read(dag::paths::report(&ref_dir)) {
        Ok(bytes) => bytes,
        Err(e) => {
            telemetry::error!("dag-chaos: the reference run left no report: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut points: Vec<String> = Vec::new();
    match std::fs::read_to_string(&log_path) {
        Ok(log) => {
            for line in log.lines().map(str::trim).filter(|l| !l.is_empty()) {
                if !points.iter().any(|p| p == line) {
                    points.push(line.to_string());
                }
            }
        }
        Err(e) => {
            telemetry::error!("dag-chaos: cannot read the crash-point log: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if points.is_empty() {
        telemetry::error!("dag-chaos: the reference run passed no crash points");
        return Ok(ExitCode::FAILURE);
    }
    telemetry::info!(
        "dag-chaos: {} crash points x {procs} workers per cell",
        points.len()
    );

    let mut failures = 0usize;
    for (i, point) in points.iter().enumerate() {
        let dir = root.join(format!("point-{i:02}"));
        match dag_chaos_one_point(&exe, &dir, procs, point, &reference_report) {
            Ok(()) => println!("dag-chaos: kill at {point} -> report is byte-identical"),
            Err(e) => {
                failures += 1;
                println!("dag-chaos: kill at {point} -> FAIL: {e}");
            }
        }
    }
    println!("dag-chaos: {}/{} crash points pass", points.len() - failures, points.len());
    if failures > 0 {
        telemetry::error!("dag-chaos: artifacts kept in {}", root.display());
        return Ok(ExitCode::FAILURE);
    }
    if args.switch("keep") {
        println!("dag-chaos: artifacts kept in {}", root.display());
    } else {
        std::fs::remove_dir_all(&root).ok();
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &'static Command, argv: &[&str]) -> Result<Args, String> {
        Args::parse(cmd, &argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_table_refuses_junk_argv_for_every_command() {
        for cmd in COMMANDS {
            let name = cmd.name;
            // A positional the command takes, so the stray cases below
            // exercise the flags rather than a missing positional.
            let pos: &[&str] = if cmd.positional.is_some() { &["somewhere"] } else { &[] };
            let err = parse(cmd, &[pos, &["--no-such-flag"]].concat()).err();
            assert!(err.is_some_and(|e| e.contains("--no-such-flag")), "{name}: unknown flag");
            let stray = [pos, &["stray"]].concat();
            assert!(parse(cmd, &stray).is_err(), "{name}: stray positional");
            for &(flag, value, _) in cmd.accepted() {
                let dashed = format!("--{flag}");
                let err = match value {
                    Some(_) => parse(cmd, &[pos, &[dashed.as_str()]].concat()).err(),
                    None => parse(cmd, &[pos, &[dashed.as_str(), "yes"]].concat()).err(),
                };
                assert!(err.is_some_and(|e| e.contains(&dashed)), "{name} {dashed}");
                let once = match value {
                    Some(_) => vec![dashed.as_str(), "1"],
                    None => vec![dashed.as_str()],
                };
                let twice = [pos, &once, &once].concat();
                assert!(parse(cmd, &twice).is_err(), "{name} {dashed} twice");
            }
        }
    }

    #[test]
    fn the_table_accepts_every_declared_flag() {
        for cmd in COMMANDS {
            let mut argv: Vec<String> = cmd.positional.map(String::from).into_iter().collect();
            for &(flag, value, _) in cmd.accepted() {
                argv.push(format!("--{flag}"));
                argv.extend(value.map(|_| "1".to_string()));
            }
            let args = Args::parse(cmd, &argv).unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
            assert_eq!(args.positional.is_some(), cmd.positional.is_some());
            for &(flag, value, _) in cmd.accepted() {
                match value {
                    Some(_) => assert_eq!(args.text(flag), Some("1"), "{} --{flag}", cmd.name),
                    None => assert!(args.switch(flag), "{} --{flag}", cmd.name),
                }
            }
        }
    }

    #[test]
    fn command_and_flag_names_are_unique() {
        let names: BTreeSet<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), COMMANDS.len(), "duplicate command");
        for cmd in COMMANDS {
            let mut seen = BTreeSet::new();
            for &(flag, _, _) in cmd.accepted() {
                assert!(seen.insert(flag), "{}: --{flag} declared twice", cmd.name);
            }
        }
    }

    #[test]
    fn typed_getters_name_the_flag_and_what_it_needs() {
        let attack = COMMANDS.iter().find(|c| c.name == "attack").unwrap();
        let args = parse(attack, &["--rate", "abc"]).unwrap();
        let err = attack_task_from_flags(&args).unwrap_err();
        assert!(err.contains("--rate") && err.contains("`abc`"), "{err}");
        let args = parse(attack, &["--frames", "4"]).unwrap();
        assert_eq!(args.get("frames", "n", parse_count), Ok(Some(4)));
        assert_eq!(args.get("rate", "r", finite), Ok(None));
    }
}
