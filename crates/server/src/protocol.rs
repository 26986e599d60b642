//! Request vocabulary of the line protocol.
//!
//! One JSON object per line, `cmd` selects the verb. Parsing is strict
//! about types (a string `timeout_ms` is an error, not a coercion) but
//! lenient about omissions — every optional field has the documented
//! default — so hand-typed `echo ... | nc -U` sessions work.
//!
//! Number types are checked here, not in the shared JSON codec, which
//! parses any JSON number: `id` and `timeout_ms` must be unsigned
//! integers that fit a `u64`, so `1.5`, `-3`, `1e9` and
//! `18446744073709551616` there are errors. A number of any shape in a
//! field the protocol does not read is ignored, like any other unknown
//! field.

use crate::wire::{parse, Value};

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Admit a job: optimize `source` and journal the result.
    Submit {
        /// Verilog source text.
        source: String,
        /// Optimization level name; default `"full"`.
        level: String,
        /// Per-job wall-clock budget in milliseconds; 0 (the default)
        /// inherits the server's `--timeout-ms`.
        timeout_ms: u64,
        /// Run SAT equivalence verification; default `false`.
        verify: bool,
    },
    /// Report a job's phase without blocking.
    Status {
        /// Job id from `submit`.
        id: u64,
    },
    /// Fetch a job's terminal result.
    Result {
        /// Job id from `submit`.
        id: u64,
        /// Block until the job is terminal; default `true`.
        wait: bool,
        /// Include the optimized Verilog in the response; default
        /// `false` (the digest is always included).
        verilog: bool,
    },
    /// Liveness + counters snapshot.
    Health,
    /// Stop admissions and begin graceful shutdown.
    Drain,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = parse(line.trim())?;
    let cmd = value
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or("missing string field \"cmd\"")?;
    match cmd {
        "submit" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or("submit: missing string field \"source\"")?
                .to_string();
            let level = opt_str(&value, "level", "full")?;
            let timeout_ms = opt_u64(&value, "timeout_ms", 0)?;
            let verify = opt_bool(&value, "verify", false)?;
            Ok(Request::Submit {
                source,
                level,
                timeout_ms,
                verify,
            })
        }
        "status" => Ok(Request::Status {
            id: req_u64(&value, "id")?,
        }),
        "result" => Ok(Request::Result {
            id: req_u64(&value, "id")?,
            wait: opt_bool(&value, "wait", true)?,
            verilog: opt_bool(&value, "verilog", false)?,
        }),
        "health" => Ok(Request::Health),
        "drain" => Ok(Request::Drain),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn req_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or(format!("missing integer field {key:?}"))
}

fn opt_u64(value: &Value, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or(format!("field {key:?} must be an integer")),
    }
}

fn opt_bool(value: &Value, key: &str, default: bool) -> Result<bool, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or(format!("field {key:?} must be a boolean")),
    }
}

fn opt_str(value: &Value, key: &str, default: &str) -> Result<String, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or(format!("field {key:?} must be a string")),
    }
}

/// `{"ok":false,"error":...}` — the catch-all failure shape.
pub fn error_response(message: &str) -> Value {
    let mut v = Value::object();
    v.set("ok", Value::Bool(false));
    v.set("error", Value::Str(message.to_string()));
    v
}

/// `{"ok":false,"rejected":...}` — an admission refusal; `reason` is
/// one of `"overloaded"`, `"draining"`, `"journal"`.
pub fn rejected_response(reason: &str) -> Value {
    let mut v = Value::object();
    v.set("ok", Value::Bool(false));
    v.set("rejected", Value::Str(reason.to_string()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_defaults_are_applied() {
        let req =
            parse_request(r#"{"cmd":"submit","source":"module m; endmodule"}"#).expect("parses");
        assert_eq!(
            req,
            Request::Submit {
                source: "module m; endmodule".into(),
                level: "full".into(),
                timeout_ms: 0,
                verify: false,
            }
        );
    }

    #[test]
    fn submit_honors_every_field() {
        let req = parse_request(
            r#"{"cmd":"submit","source":"x","level":"light","timeout_ms":250,"verify":true}"#,
        )
        .expect("parses");
        assert_eq!(
            req,
            Request::Submit {
                source: "x".into(),
                level: "light".into(),
                timeout_ms: 250,
                verify: true,
            }
        );
    }

    #[test]
    fn result_defaults_to_waiting_without_verilog() {
        assert_eq!(
            parse_request(r#"{"cmd":"result","id":3}"#).expect("parses"),
            Request::Result {
                id: 3,
                wait: true,
                verilog: false
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"result","id":3,"wait":false,"verilog":true}"#)
                .expect("parses"),
            Request::Result {
                id: 3,
                wait: false,
                verilog: true
            }
        );
    }

    #[test]
    fn bad_requests_are_descriptive_errors() {
        for (line, needle) in [
            ("", "unexpected end"),
            ("[]", "cmd"),
            (r#"{"cmd":"warp"}"#, "unknown cmd"),
            (r#"{"cmd":"submit"}"#, "source"),
            (r#"{"cmd":"status"}"#, "id"),
            (
                r#"{"cmd":"submit","source":"x","timeout_ms":"fast"}"#,
                "integer",
            ),
            (r#"{"cmd":"result","id":1,"wait":1}"#, "boolean"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line:?}: {err:?} lacks {needle:?}");
        }
        // Valid JSON numbers that are not u64s: the codec parses them,
        // and the integer fields reject them here.
        for number in ["1.5", "-3", "1e9", "18446744073709551616"] {
            for line in [
                format!(r#"{{"cmd":"status","id":{number}}}"#),
                format!(r#"{{"cmd":"submit","source":"x","timeout_ms":{number}}}"#),
            ] {
                let err = parse_request(&line).expect_err(&line);
                assert!(err.contains("integer"), "{line:?}: {err:?}");
            }
        }
    }

    #[test]
    fn canned_responses_render_stably() {
        assert_eq!(
            error_response("boom").render(),
            r#"{"ok":false,"error":"boom"}"#
        );
        assert_eq!(
            rejected_response("overloaded").render(),
            r#"{"ok":false,"rejected":"overloaded"}"#
        );
    }
}
