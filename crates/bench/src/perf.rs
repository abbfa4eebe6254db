//! Structural validation of the Chrome `trace_event` timelines that
//! persistent campaign runs write (`trace.json`, `trace-<shard>.json`).
//! The repository benchmark (`perfbench/`) and `tests/telemetry.rs`
//! check every trace they read through [`validate_trace_doc`].

use gnnunlock_engine::Json;

/// Structurally validate a Chrome `trace_event` document: a
/// `traceEvents` array of complete (`"ph":"X"`) events, each carrying
/// `name`/`cat`/`ts`/`dur`/`pid`/`tid` and the deterministic
/// `args.id`/`args.parent` pair. Returns the number of events.
///
/// # Errors
///
/// Describes the first structural violation.
pub fn validate_trace_doc(doc: &Json) -> Result<usize, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing traceEvents array".to_string()),
    };
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    for (i, ev) in events.iter().enumerate() {
        for field in ["name", "cat", "ph"] {
            if ev.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("event {i} lacks string field '{field}'"));
            }
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i} is not a complete ('X') event"));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            if ev.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("event {i} lacks numeric field '{field}'"));
            }
        }
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} lacks args"))?;
        for field in ["id", "parent"] {
            if args.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("event {i} lacks args.{field}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_telemetry as telemetry;

    #[test]
    fn trace_validation_accepts_rendered_spans_and_rejects_junk() {
        let spans = vec![
            telemetry::SpanRecord {
                name: "bench-attack".to_string(),
                cat: "bench-run".to_string(),
                id: telemetry::derived_id(0, "bench-attack"),
                parent: 0,
                start_us: 0,
                dur_us: 100,
                tid: 0,
            },
            telemetry::SpanRecord {
                name: "bench-attack/lock".to_string(),
                cat: "bench-stage".to_string(),
                id: telemetry::derived_id(telemetry::derived_id(0, "bench-attack"), "lock"),
                parent: telemetry::derived_id(0, "bench-attack"),
                start_us: 1,
                dur_us: 9,
                tid: 0,
            },
        ];
        let doc = Json::parse(&telemetry::chrome_trace_json(&spans)).unwrap();
        assert_eq!(validate_trace_doc(&doc), Ok(2));

        assert!(validate_trace_doc(&Json::obj(vec![])).is_err());
        let empty = Json::obj(vec![("traceEvents", Json::Arr(vec![]))]);
        assert!(validate_trace_doc(&empty).is_err());
        let partial = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![("name", Json::Str("x".into()))])]),
        )]);
        assert!(validate_trace_doc(&partial).is_err());
    }
}
