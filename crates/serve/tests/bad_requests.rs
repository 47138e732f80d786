//! A bad request must not knock the service over: a query whose fault
//! probability lies outside `[0, 1]` gets exactly one `"status":"error"`
//! line, rendered with the error's `Display` text, and the `congest-serve`
//! process keeps answering the queries after it. The same holds for a line
//! nested far deeper than the JSON reader accepts.

use std::io::Write;
use std::process::{Command, Stdio};

use serve::json;

const GRAPH: &str = r#"{"generator":"planted_c2k","n":64,"d":3,"k":2,"seed":5}"#;

fn query(id: &str, scenario: &str) -> String {
    format!(
        r#"{{"schema":"congest.serve","version":1,"op":"query","id":"{id}","graph":{GRAPH},"scenario":{scenario}}}"#
    )
}

const FLUSH: &str = r#"{"schema":"congest.serve","version":1,"op":"flush"}"#;

/// Pipes `lines` through the real binary and returns its stdout lines.
fn serve_session(lines: &[String]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_congest-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn congest-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().expect("wait for congest-serve");
    assert!(
        out.status.success(),
        "congest-serve exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The one response line carrying `id`.
fn response<'a>(lines: &'a [String], id: &str) -> &'a str {
    let tag = format!(r#""id":"{id}""#);
    let hits: Vec<&String> = lines.iter().filter(|l| l.contains(&tag)).collect();
    assert_eq!(hits.len(), 1, "exactly one line answers {id}: {lines:?}");
    hits[0]
}

#[test]
fn out_of_range_fault_probabilities_get_one_error_line_each_and_serving_continues() {
    let lines = serve_session(&[
        query(
            "bad_loss",
            r#"{"kind":"triangle","seed":1,"faults":{"kind":"independent_loss","p":1.5}}"#,
        ),
        FLUSH.to_string(),
        query("good", r#"{"kind":"triangle","seed":2}"#),
        FLUSH.to_string(),
        query(
            "bad_flip",
            r#"{"kind":"even_cycle","k":2,"seed":1,"faults":{"kind":"bit_flip","p":-0.5},"reliable":true}"#,
        ),
        query("good_after", r#"{"kind":"even_cycle","k":2,"seed":2}"#),
    ]);
    for (id, text) in [
        (
            "bad_loss",
            "invalid configuration: independent loss rate must be a probability in [0, 1], got 1.5",
        ),
        (
            "bad_flip",
            "invalid configuration: bit-flip rate must be a probability in [0, 1], got -0.5",
        ),
    ] {
        let v = json::parse(response(&lines, id)).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
        assert_eq!(v.get("error").and_then(|s| s.as_str()), Some(text));
    }
    for id in ["good", "good_after"] {
        let line = response(&lines, id);
        assert!(line.contains(r#""status":"ok""#), "{line}");
    }
}

#[test]
fn deeply_nested_lines_get_one_error_line_each_and_serving_continues() {
    const DEPTH: usize = 100_000;
    let open_brackets = "[".repeat(DEPTH);
    let nested_unused_field = format!(
        r#"{{"schema":"congest.serve","version":1,"op":"query","id":"nested","graph":{GRAPH},"scenario":{{"kind":"triangle","seed":1}},"unused":{}{}}}"#,
        "[".repeat(DEPTH),
        "]".repeat(DEPTH)
    );
    let lines = serve_session(&[
        open_brackets,
        nested_unused_field,
        query("after", r#"{"kind":"triangle","seed":2}"#),
    ]);
    let errors: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains(r#""status":"error""#))
        .collect();
    assert_eq!(errors.len(), 2, "one error line per bad line: {lines:?}");
    for line in errors {
        let v = json::parse(line).unwrap();
        let msg = v.get("error").and_then(|s| s.as_str()).unwrap();
        assert!(msg.contains("nesting deeper than"), "{msg}");
    }
    let after = response(&lines, "after");
    assert!(after.contains(r#""status":"ok""#), "{after}");
}
