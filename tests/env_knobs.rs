//! The `GNNUNLOCK_CACHE_DIR` / `GNNUNLOCK_EVENTS` environment knobs.
//!
//! Kept in its OWN test binary: it mutates the process environment, and
//! concurrent setenv/getenv from sibling test threads is undefined
//! behavior on glibc. Here there are no sibling threads.

use gnnunlock::engine::testing::TempDir;
use gnnunlock::engine::{EventLog, JobValue};
use gnnunlock::prelude::*;
use std::sync::Arc;

#[test]
fn env_knobs_build_a_persistent_executor() {
    let dir = TempDir::new("env-knobs-env-cache");
    let events_dir = TempDir::new("env-knobs-events");
    let events = events_dir.join("events.jsonl");
    std::env::set_var("GNNUNLOCK_CACHE_DIR", dir.as_os_str());
    std::env::set_var("GNNUNLOCK_EVENTS", &events);

    // A dataset-summary job — covered by the real PipelineCodec.
    let summary_graph = || {
        use gnnunlock::engine::{JobGraph, JobKind};
        let mut g = JobGraph::new();
        let id = g.add(
            "summary/demo",
            JobKind::Custom("summary"),
            Some(77),
            vec![],
            |_| {
                Ok(Arc::new(gnnunlock::core::DatasetSummary {
                    name: "Anti-SAT".into(),
                    benchmarks: "ISCAS-85".into(),
                    format: "Bench".into(),
                    classes: 2,
                    feature_len: 13,
                    nodes: 1234,
                    circuits: 8,
                }) as JobValue)
            },
        );
        (g, id)
    };

    let exec = executor_from_env(ExecConfig::with_workers(2)).unwrap();
    let (graph, _) = summary_graph();
    let first = exec.run(graph);
    assert_eq!(first.stats.executed, 1);
    drop(exec);

    // A second "process": fresh executor from the same env.
    let exec = executor_from_env(ExecConfig::with_workers(2)).unwrap();
    let (graph, id) = summary_graph();
    let second = exec.run(graph);
    assert_eq!(second.stats.disk_hits, 1);
    let summary = second.value::<gnnunlock::core::DatasetSummary>(id).unwrap();
    assert_eq!((summary.nodes, summary.circuits), (1234, 8));

    // Events streamed to the configured path.
    let replay = EventLog::replay(&events).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| matches!(e, Event::CacheHit { id: 0, .. })));

    std::env::remove_var("GNNUNLOCK_CACHE_DIR");
    std::env::remove_var("GNNUNLOCK_EVENTS");
}
