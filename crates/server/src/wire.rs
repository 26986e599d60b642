//! JSON for the line-delimited socket protocol.
//!
//! The daemon speaks one JSON object per line in both directions, and
//! both directions go through the workspace's one codec,
//! [`smartly_sat::json`] — the same codec that renders the driver's
//! reports and digests, which travel through this protocol as opaque
//! strings. Its contract is what a daemon reading untrusted lines
//! needs: nesting is bounded at 64 levels, malformed input is an error
//! and never a panic, and a compact rendering never contains a raw
//! newline. Which fields must be unsigned integers is checked in
//! [`crate::protocol`], not here.

pub use smartly_sat::json::Json as Value;

/// Parses one JSON value; the whole input must be consumed (modulo
/// whitespace), which is exactly the one-value-per-line contract.
pub fn parse(text: &str) -> Result<Value, String> {
    Value::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let mut req = Value::object();
        req.set("cmd", Value::Str("submit".into()));
        req.set("source", Value::Str("module m;\nendmodule\n".into()));
        req.set("timeout_ms", Value::UInt(250));
        req.set("verify", Value::Bool(false));
        req.set("tags", Value::Array(vec![Value::Null, Value::UInt(7)]));
        let line = req.render();
        assert!(!line.contains('\n'), "line protocol: newlines escaped");
        let back = parse(&line).expect("parses");
        assert_eq!(back, req);
        assert_eq!(back.get("timeout_ms").and_then(Value::as_u64), Some(250));
        assert_eq!(back.get("verify").and_then(Value::as_bool), Some(false));
        assert_eq!(
            back.get("source").and_then(Value::as_str),
            Some("module m;\nendmodule\n")
        );
    }

    #[test]
    fn escapes_round_trip() {
        for s in [
            "plain",
            "quote\" slash\\ newline\n tab\t cr\r",
            "control\u{0001}char",
            "unicode: µ → 💡",
        ] {
            let v = Value::Str(s.to_string());
            assert_eq!(parse(&v.render()).expect("parses"), v, "{s:?}");
        }
        // explicit \u escapes, including a surrogate pair
        assert_eq!(
            parse(r#""\u00b5 \ud83d\udca1""#).expect("parses"),
            Value::Str("µ 💡".into())
        );
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        // Without the codec's depth bound this overflows a 2 MiB stack.
        let too_deep = "[".repeat(10_000);
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            too_deep.as_str(),
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn object_lookup_is_first_write_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
