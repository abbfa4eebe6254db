//! The backend-conformance suite: every [`StoreBackend`] implementation
//! must discharge the same protocol obligations — atomic last-writer-
//! wins publish, exactly-one-winner claim, rename-arbitrated takeover,
//! and usage accounting that never bills in-flight protocol blobs. This
//! suite is where those obligations are asserted. Every test below runs
//! against the `local` directory backend that ships and against a
//! rule-free [`Faulty`] over a local directory — which proves the fault
//! decorator transparent — in one process, so a contract regression
//! names the offending backend. The last two drive whole layers over
//! each backend: a [`DiskStore`] shared by two handles, and a sharded
//! campaign run cold then warm.

use gnnunlock_engine::testing::{Echo, Faulty, TempDir};
use gnnunlock_engine::{
    execution_counts, shard_replays, Campaign, DiskStore, ExecConfig, JobKind, LocalDirBackend,
    ReportOptions, ShardConfig, StoreBackend,
};
use std::sync::Arc;

const ECHO: Echo = Echo { salt: 7 };

/// The implementations under conformance, each with its own root.
fn conformance_backends(tag: &str) -> Vec<(&'static str, Arc<dyn StoreBackend>, TempDir)> {
    let root = |name: &str| TempDir::new(&format!("backend-matrix-{tag}-{name}"));
    vec![
        ("local", Arc::new(LocalDirBackend::new()), root("local")),
        (
            "faulty-local",
            Arc::new(Faulty::new(LocalDirBackend::new())),
            root("faulty-local"),
        ),
    ]
}

/// Publish is an atomic last-writer-wins swap on every backend: a later
/// publish replaces an earlier one, racing publishers never leave
/// interleaved bytes under the final name, and successful publishes
/// leave no staging debris beside it.
#[test]
fn conformance_publish_is_atomic_and_last_writer_wins() {
    for (name, backend, root) in conformance_backends("publish") {
        let path = root.join("objects/train/aa/entry.bin");
        backend.ensure_dir(path.parent().unwrap()).unwrap();
        backend.publish(&path, b"first").unwrap();
        backend.publish(&path, b"second").unwrap();
        assert_eq!(backend.load(&path).unwrap(), b"second", "{name}: LWW");
        assert!(backend.contains(&path), "{name}");

        let payloads: Vec<Vec<u8>> = (0..8)
            .map(|i| format!("payload-{i:02}").into_bytes())
            .collect();
        std::thread::scope(|s| {
            for payload in &payloads {
                let backend = &backend;
                let path = &path;
                s.spawn(move || backend.publish(path, payload).unwrap());
            }
        });
        let got = backend.load(&path).unwrap();
        assert!(
            payloads.contains(&got),
            "{name}: racing publishes tore the entry: {got:?}"
        );
        let leftovers: Vec<_> = backend
            .list(path.parent().unwrap(), false)
            .unwrap()
            .into_iter()
            .filter(|m| m.path != path)
            .collect();
        assert!(
            leftovers.is_empty(),
            "{name}: staging debris: {leftovers:?}"
        );
    }
}

/// Claim is exactly-one-winner on every backend: of N concurrent
/// claimants on one path, one succeeds and the rest fail
/// `AlreadyExists`, and the surviving content is the winner's in full.
#[test]
fn conformance_claim_has_exactly_one_winner() {
    for (name, backend, root) in conformance_backends("claim") {
        let path = root.join("objects/train/aa/job.lease");
        backend.ensure_dir(path.parent().unwrap()).unwrap();
        let contents: Vec<Vec<u8>> = (0..6)
            .map(|i| format!("gnnunlock-lease owner=w{i} pid={i} gen=0\n").into_bytes())
            .collect();
        let outcomes: Vec<Result<(), std::io::ErrorKind>> = std::thread::scope(|s| {
            let handles: Vec<_> = contents
                .iter()
                .map(|content| {
                    let backend = &backend;
                    let path = &path;
                    s.spawn(move || backend.claim(path, content).map_err(|e| e.kind()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let winners = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(
            winners, 1,
            "{name}: exactly one claim must win: {outcomes:?}"
        );
        assert!(
            outcomes
                .iter()
                .all(|o| o.is_ok() || *o == Err(std::io::ErrorKind::AlreadyExists)),
            "{name}: losers must fail AlreadyExists: {outcomes:?}"
        );
        let winner = outcomes.iter().position(|o| o.is_ok()).unwrap();
        assert_eq!(
            backend.load(&path).unwrap(),
            contents[winner],
            "{name}: the winner's content must survive intact"
        );
    }
}

/// Takeover arbitration: of N concurrent challengers entombing one
/// stale lease to distinct tomb names, exactly one wins (the rename
/// arbitrates), losers fail `NotFound` and leave no tomb debris, and the
/// winner's tomb carries the buried bytes.
#[test]
fn conformance_takeover_entomb_arbitrates_one_winner() {
    for (name, backend, root) in conformance_backends("entomb") {
        let lease = root.join("objects/train/aa/job.lease");
        backend.ensure_dir(lease.parent().unwrap()).unwrap();
        let buried = b"gnnunlock-lease owner=dead pid=1 gen=3\n";
        backend.publish(&lease, buried).unwrap();
        let outcomes: Vec<Result<(), std::io::ErrorKind>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let backend = &backend;
                    let lease = &lease;
                    let tomb = lease.with_file_name(format!("job.lease.tomb-{i}"));
                    s.spawn(move || backend.entomb(lease, &tomb).map_err(|e| e.kind()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let winners = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(
            winners, 1,
            "{name}: exactly one entomb must win: {outcomes:?}"
        );
        assert!(
            outcomes
                .iter()
                .all(|o| o.is_ok() || *o == Err(std::io::ErrorKind::NotFound)),
            "{name}: losers must see the source as gone: {outcomes:?}"
        );
        assert!(!backend.contains(&lease), "{name}: the lease itself moved");
        let tombs: Vec<_> = backend
            .list(lease.parent().unwrap(), false)
            .unwrap()
            .into_iter()
            .filter(|m| m.path.to_string_lossy().contains(".tomb-"))
            .collect();
        assert_eq!(tombs.len(), 1, "{name}: losers must leave no tomb debris");
        assert_eq!(
            backend.load(&tombs[0].path).unwrap(),
            buried,
            "{name}: the tomb must carry the buried lease"
        );
    }
}

/// Usage accounting bills `.bin` entries only: leases, staged temps and
/// tombs — in-flight protocol blobs — never count, on any backend.
#[test]
fn conformance_usage_accounting_excludes_in_flight_protocol_blobs() {
    for (name, backend, root) in conformance_backends("usage") {
        let store = DiskStore::open_with_backend(&root, "", backend.clone()).unwrap();
        store.save(JobKind::Train, 0xabc, b"entry payload").unwrap();
        let billed = store.usage_bytes();
        assert!(billed > 0, "{name}: the entry itself is billed");
        let objects = store.objects_root().join("train");
        for blob in ["job.lease", ".tmp-99-0", "job.lease.tomb-99-0"] {
            backend
                .publish(&objects.join(blob), b"protocol bytes")
                .unwrap();
        }
        assert_eq!(
            store.usage_bytes(),
            billed,
            "{name}: protocol blobs must never be billed"
        );
    }
}

/// A store round-trips an entry on every backend, and a second handle
/// on the same root sees it — the cross-process story every backend
/// must support.
#[test]
fn disk_store_round_trips_on_every_backend() {
    for (name, backend, root) in conformance_backends("store") {
        let store = DiskStore::open_with_backend(&root, "", backend.clone()).unwrap();
        assert!(!store.contains(JobKind::Train, 0xfeed), "{name}");
        store
            .save(JobKind::Train, 0xfeed, b"round trip payload")
            .unwrap();
        assert!(store.contains(JobKind::Train, 0xfeed), "{name}");
        assert_eq!(
            store.load(JobKind::Train, 0xfeed).as_deref(),
            Some(&b"round trip payload"[..]),
            "{name}"
        );
        assert!(store.usage_bytes() > 0, "{name}");
        let peer = DiskStore::open_with_backend(&root, "", backend).unwrap();
        assert!(peer.contains(JobKind::Train, 0xfeed), "{name}");
    }
}

/// A sharded campaign completes on every backend, a second shard
/// renders the same report from the stored results, and no job body
/// runs twice.
#[test]
fn sharded_toy_campaign_completes_on_every_backend() {
    let campaign = Campaign::builder("backend-matrix")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .build();
    for (name, backend, root) in conformance_backends("sharded") {
        let shard = |id: &str| ShardConfig::new(id).with_backend(backend.clone());
        let cold = campaign
            .execute_sharded(&ECHO, ExecConfig::with_workers(2), &root, &shard("s0"))
            .unwrap();
        assert!(cold.run.outcome.all_succeeded(), "{name}");
        let report = cold.run.report(ReportOptions::default()).to_json();

        let warm = campaign
            .execute_sharded(&ECHO, ExecConfig::with_workers(2), &root, &shard("s1"))
            .unwrap();
        assert!(warm.run.outcome.all_succeeded(), "{name}");
        assert_eq!(
            warm.run.report(ReportOptions::default()).to_json(),
            report,
            "{name}: cold and warm shards must agree byte-for-byte"
        );

        let counts = execution_counts(&shard_replays(&root).unwrap());
        assert_eq!(counts.len(), campaign.plan().len(), "{name}");
        assert!(counts.values().all(|&n| n == 1), "{name}: {counts:?}");
    }
}
