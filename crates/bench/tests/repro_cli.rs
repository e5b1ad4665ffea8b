//! `repro`'s command line: an unknown experiment (such as the deleted
//! `eval`) exits 2 naming the valid ones, and that list — built from the
//! dispatch tables — is the one its usage doc-comment and `cleanm`'s show.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_with_the_documented_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("eval")
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the check");

    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let listed = stderr
        .trim_end()
        .rsplit("one of ")
        .next()
        .expect("the list of valid experiments");
    let documented = include_str!("../src/bin/repro.rs")
        .lines()
        .find_map(|line| line.strip_prefix("//! repro ["))
        .and_then(|names| names.strip_suffix(']'))
        .expect("usage line in repro.rs's module docs");
    assert_eq!(listed, documented);
    let cleanm_help = include_str!("../../cli/src/bin/cleanm.rs");
    assert!(cleanm_help.contains(&format!("bench [{documented}]")));
    assert!(!listed.split('|').any(|name| name == "eval"));
}
