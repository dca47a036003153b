//! Every CLI verb rejects flags it does not read with a usage error
//! (exit 2) that names the flag, instead of silently running defaults.

use std::process::{Command, Output};

/// Run `dpml` with a whitespace-separated argument line.
fn dpml(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpml"))
        .args(line.split_whitespace())
        .output()
        .expect("run the dpml binary")
}

fn assert_usage_error(line: &str, flag: &str) {
    let out = dpml(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "dpml {line}: {stderr}");
    assert!(
        stderr.contains("error[usage]") && stderr.contains(flag),
        "dpml {line} should name `{flag}`: {stderr}"
    );
    assert!(out.stdout.is_empty(), "dpml {line} ran before rejecting");
}

#[test]
fn a_flag_the_verb_does_not_take_is_rejected() {
    // `app` chooses its own designs; `--alg` used to be dropped silently.
    assert_usage_error(
        "app --cluster b --nodes 4 --ppn 4 --app hpcg --alg sharp-node",
        "--alg",
    );
}

#[test]
fn a_misspelt_flag_is_rejected() {
    // `--byte` for `--bytes` used to run the 1 MB default.
    assert_usage_error(
        "recover --cluster a --nodes 4 --byte 2M --crash-rank 6",
        "--byte",
    );
}

#[test]
fn sub_verbs_check_their_own_flags() {
    // `chaos replay` reads only `--dir`.
    assert_usage_error("chaos replay --seed 7", "--seed");
    assert_usage_error("serve --worker 2", "--worker");
}

#[test]
fn accepted_flags_still_run() {
    let out = dpml("simulate --cluster a --nodes 2 --ppn 2 --alg rd --bytes 64");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_takes_the_flags_the_benchmark_passes() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("dpml-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dpml"))
        .args("serve --addr 127.0.0.1:0 --workers 1 --queue 4 --client-cap 4".split(' '))
        .arg("--journal")
        .arg(dir.join("serve.journal"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dpml serve");
    // Keep reading stdout until the daemon exits: a closed pipe would
    // fail its later prints.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .strip_prefix("dpml-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"))
        .to_string();
    let mut client = dpml::serve::Client::connect(addr.as_str()).expect("connect");
    client.shutdown().expect("shutdown");
    std::io::copy(&mut stdout, &mut std::io::sink()).expect("drain stdout");
    let status = child.wait().expect("wait for the daemon");
    std::fs::remove_dir_all(&dir).ok();
    assert!(status.success(), "daemon exited with {status}");
}
