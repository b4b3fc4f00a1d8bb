//! `reproduce` prints the paper's Tables I–III beside the measured
//! rankings; its whole stdout is pinned, so a change that moves any
//! ranking of the tables shows up as a diff to the golden file.

use std::process::Command;

#[test]
fn reproduce_stdout_matches_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce")).output().expect("run reproduce");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let actual = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        actual == include_str!("../../../tests/golden/reproduce.txt"),
        "tests/golden/reproduce.txt does not match this build; actual stdout:\n{actual}\n"
    );
}
