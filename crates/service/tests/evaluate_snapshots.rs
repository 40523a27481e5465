//! Pins the full-family `/evaluate` response bodies across commits.
//!
//! `service_determinism.rs` proves a response is the same at any thread
//! count, but only within one build. These snapshots pin the bytes
//! themselves, so a change to any scoring layer — the Monte-Carlo
//! P(catastrophic) estimator in particular, which both shapes reach for
//! j ≥ 3 — must leave every scheme's four dimensions bit-identical.
//! The snapshots under `tests/snapshots/` were rendered by
//! `EvalService::evaluate` before the allocation-free estimator kernel
//! replaced the per-sample-allocating one.

use std::path::Path;

use hcft_service::{EvalRequest, EvalService};

fn check(query: &str, snapshot: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(snapshot);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let svc = EvalService::new(1, 1);
    let req = EvalRequest::from_query(query).expect("snapshot query parses");
    let body = svc.evaluate(&req).expect("snapshot request evaluates");
    assert_eq!(
        *body,
        expected,
        "{query} response drifted from {}",
        path.display()
    );
}

#[test]
fn full_families_8x4_reproduces_snapshot() {
    check("nodes=8&ppn=4&families=full", "full_8x4.json");
}

#[test]
fn full_families_32x8_reproduces_snapshot() {
    check("nodes=32&ppn=8&families=full", "full_32x8.json");
}
