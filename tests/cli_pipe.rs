//! The `tldag` CLI stops quietly when its stdout reader goes away
//! (`tldag topology | head`) instead of panicking on the broken pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitStatus, Stdio};

/// Runs `tldag` with `args`, reads `lines` lines of its stdout, then closes
/// the pipe and waits for the process.
fn run_and_close_early(args: &[&str], lines: usize) -> ExitStatus {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tldag"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tldag");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    for _ in 0..lines {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read a line");
    }
    drop(reader);
    let output = child.wait_with_output().expect("wait for tldag");
    assert_ne!(
        output.status.code(),
        Some(101),
        "tldag {args:?} panicked: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.status
}

#[test]
fn topology_stops_cleanly_when_the_reader_leaves() {
    // Far more output than a pipe buffers, so the writer is still
    // printing when the reader leaves after one line.
    let status = run_and_close_early(&["topology", "--nodes", "600"], 1);
    assert!(status.success(), "{status:?}");
}

#[test]
fn run_stops_cleanly_on_a_closed_stdout() {
    // The pipe closes before the summary is printed at all.
    let status = run_and_close_early(&["run", "--nodes", "6", "--slots", "3"], 0);
    assert!(status.success(), "{status:?}");
}
