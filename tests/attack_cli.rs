//! `mmwave attack` end to end through the real binary: junk flags are
//! refused, `--resume <dir>` stores its result as a campaign DAG task that
//! a repeat run prints without executing anything, the plain run prints
//! the same metrics, and a pre-DAG journal directory is refused rather
//! than silently re-run over. Misspelled, valueless, and no-op flags on
//! the other commands are refused too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mmwave() -> &'static str {
    env!("CARGO_BIN_EXE_mmwave")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmwave_attack_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn attack(args: &[&str]) -> Output {
    Command::new(mmwave())
        .arg("attack")
        .args(args)
        .env_remove("MMWAVE_CRASH_AT")
        .env_remove("MMWAVE_WORKER_SHARD")
        .output()
        .expect("spawn mmwave attack")
}

fn attack_resume(dir: &Path, args: &[&str]) -> Output {
    let dir = dir.to_str().expect("utf-8 temp dir");
    let mut all = vec!["--resume", dir];
    all.extend_from_slice(args);
    attack(&all)
}

/// The printed metrics line (`ASR … UASR … CDR …`).
fn metrics_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "attack failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("ASR "))
        .unwrap_or_else(|| panic!("no metrics line in:\n{stdout}"))
        .to_string()
}

#[test]
fn junk_rate_and_frames_are_refused() {
    for (args, needle) in [
        (&["--rate", "abc"][..], "--rate"),
        (&["--rate", "0"][..], "--rate"),
        (&["--rate", "1.5"][..], "--rate"),
        (&["--rate", "NaN"][..], "--rate"),
        (&["--frames", "x"][..], "--frames"),
        (&["--rate", "abc", "--frames", "x"][..], "--rate"),
    ] {
        let out = attack(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        assert!(
            stderr.contains(needle),
            "{args:?}: error must name {needle}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("ASR "),
            "{args:?} must not run the attack"
        );
    }
}

#[test]
fn resumed_runs_reuse_the_stored_result_and_match_the_plain_run() {
    let dir = temp_dir("resume");
    let flags = ["--rate", "0.5", "--frames", "4"];

    let first = attack_resume(&dir, &flags);
    assert!(String::from_utf8_lossy(&first.stdout).contains("executed 1"));
    assert!(
        dir.join("dag.json").exists(),
        "the run must persist its campaign"
    );

    let second = attack_resume(&dir, &flags);
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("executed 0"),
        "a repeat run must execute nothing:\n{stdout}"
    );
    assert_eq!(metrics_line(&first), metrics_line(&second));

    let plain = attack(&flags);
    assert_eq!(
        metrics_line(&plain),
        metrics_line(&first),
        "plain and resumed runs differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_journal_directory_is_refused() {
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = "{\"id\":\"attack scenario=push→pull rate=0.4 frames=8 scale=smoke\",\
                   \"outcome\":{\"status\":\"Completed\",\"result\":1.0}}\n";
    std::fs::write(dir.join("journal.jsonl"), journal).unwrap();

    let out = attack_resume(&dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a legacy journal dir must be refused"
    );
    assert!(
        stderr.contains("journal.jsonl"),
        "the error must name the journal: {stderr}"
    );
    assert!(
        !dir.join("dag.json").exists(),
        "nothing may be written over the old results"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("journal.jsonl")).unwrap(),
        journal
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `mmwave <args>`, killing it after a deadline so a command that
/// ignores its flags and loops forever fails the test instead of hanging it.
fn mmwave_with_deadline(args: &[&str]) -> Output {
    let mut child = Command::new(mmwave())
        .args(args)
        .env_remove("MMWAVE_CRASH_AT")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mmwave");
    let start = Instant::now();
    while child.try_wait().expect("wait for mmwave").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            panic!("`mmwave {}` did not exit", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect mmwave output")
}

#[test]
fn misspelled_junk_and_no_op_flags_are_refused_by_every_command() {
    let dir = temp_dir("flags");
    let init = mmwave_with_deadline(&["campaign-init", "--dir", dir.to_str().unwrap(), "--quiet"]);
    assert!(init.status.success(), "{}", String::from_utf8_lossy(&init.stderr));
    let d = dir.to_str().unwrap();
    for (args, flag) in [
        (&["capture", "--distanc", "3"][..], "--distanc"),
        (&["capture", "--angle", "abc"][..], "--angle"),
        (&["campaign-status", d, "--tll", "5"][..], "--tll"),
        (&["campaign-status", d, "--workers", "257"][..], "--workers"),
        (&["worker", "--dir", d, "--ttl", "abc"][..], "--ttl"),
        (&["top", d, "--jsn", "--once"][..], "--jsn"),
        (&["profile", "--poison-frac", "0.3"][..], "--poison-frac"),
        (&["demo", "--rate", "0.1"][..], "--rate"),
        (&["attack", "--smoke"][..], "--smoke"),
    ] {
        let out = mmwave_with_deadline(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        assert!(stderr.contains(flag), "{args:?}: the error must name {flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
