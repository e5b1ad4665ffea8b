//! End-to-end tests of the built `cleanm` binary via `std::process::Command`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cleanm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cleanm"))
        .args(args)
        .output()
        .expect("launch cleanm")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cleanm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const ORDERS_CSV: &str = "id,region,amount,status\n\
                          1,east,10,open\n\
                          2,east,100,closed\n\
                          3,west,40,open\n";

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = cleanm(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: cleanm"));
}

#[test]
fn check_reports_every_seeded_error_with_spans() {
    // Three seeded syntax errors -> three diagnostics in ONE invocation.
    let file = write_temp(
        "broken.cm",
        "SELECT o.name, FROM orders o;\n\
         SELECT * FORM orders;\n\
         SELECT * FROM orders o FD(o.region |)\n",
    );
    let out = cleanm(&["check", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 errors emitted"), "{stderr}");
    assert_eq!(stderr.matches("error[E101]").count(), 3, "{stderr}");
    // Caret underlines point into the source.
    assert!(stderr.contains("^^^^"), "{stderr}");
    assert!(stderr.contains(":2:10"), "{stderr}");
}

#[test]
fn check_accepts_a_clean_file() {
    let file = write_temp("ok.cm", "SELECT * FROM orders o FD(o.region, o.status)\n");
    let out = cleanm(&["check", file.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("no diagnostics"));
}

#[test]
fn check_format_pretty_prints_canonically() {
    let file = write_temp("fmt.cm", "select distinct  o.region from orders o;\n");
    let out = cleanm(&["check", file.to_str().unwrap(), "--format"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "SELECT DISTINCT o.region FROM orders o;\n"
    );
}

#[test]
fn run_executes_a_query_against_csv_tables() {
    let csv = write_temp("orders.csv", ORDERS_CSV);
    let out = cleanm(&[
        "run",
        "SELECT * FROM orders o FD(o.region, o.status)",
        "--table",
        &format!("orders={}", csv.display()),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violating entities"), "{stdout}");
    assert!(stdout.contains("FD#0"), "{stdout}");
}

#[test]
fn run_reports_frontend_errors_with_spans_and_fails() {
    let out = cleanm(&["run", "SELECT * FORM orders"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[E101]"), "{stderr}");
    assert!(stderr.contains("<query>:1:10"), "{stderr}");
}

#[test]
fn explain_prints_plan_decisions_and_profile() {
    let csv = write_temp("orders2.csv", ORDERS_CSV);
    let out = cleanm(&[
        "explain",
        "SELECT * FROM orders o DEDUP(exact, LD, 0.8, o.region, o.status)",
        "--table",
        &format!("orders={}", csv.display()),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEDUP#0"), "{stdout}");
    assert!(stdout.contains("decision:"), "{stdout}");
    assert!(stdout.contains("exprs:"), "{stdout}");
    assert!(stdout.contains("EXPLAIN ANALYZE"), "{stdout}");
    // Plan addresses are normalized for determinism: no `0x` that starts a
    // hex number (an imbalance of `1.80x` is not one).
    let address = stdout
        .match_indices("0x")
        .find(|(i, _)| stdout[i + 2..].starts_with(|c: char| c.is_ascii_hexdigit()));
    assert_eq!(address, None, "{stdout}");
}

#[test]
fn unknown_profile_is_a_usage_error() {
    let out = cleanm(&["run", "SELECT * FROM t", "--profile", "postgres"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn dc_runs_end_to_end() {
    let csv = write_temp("orders3.csv", ORDERS_CSV);
    let out = cleanm(&[
        "run",
        "SELECT * FROM orders DC(t1.region = t2.region AND t1.amount > t2.amount + 50)",
        "--table",
        &format!("orders={}", csv.display()),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DC#0: 1 output rows"), "{stdout}");
}
