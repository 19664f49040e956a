//! `fig1_trace` drives the proxies and the certifier through the scenario of
//! the paper's Figure 1 and prints the timeline. Its output is pinned line
//! for line in `fig1_trace.expected`: a change to how the tool reaches the
//! certifier must not change what the certifier decides or completes.

use std::process::Command;

#[test]
fn fig1_trace_prints_the_pinned_timeline() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_trace"))
        .output()
        .expect("fig1_trace runs");
    assert!(out.status.success(), "{out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8 output");
    let pinned = include_str!("fig1_trace.expected");
    for (i, (got, want)) in printed.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(printed.lines().count(), pinned.lines().count());
}
