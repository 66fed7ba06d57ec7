//! The node-type table grows linearly with document depth.
//!
//! A node type is interned as (parent type, tag), so an `n`-deep chain
//! adds `n` fixed-size entries. Storing each type's whole root-to-node
//! tag path instead costs `O(n²)`: at 8 000 levels that is hundreds of
//! megabytes on top of the nodes' own Dewey labels (`n²/2` components,
//! about 128 MB, which this test allows for).
//!
//! The peak resident set (`VmHWM`) is per process, so this test is alone
//! in its binary.

#![cfg(target_os = "linux")]

use xmldom::DocumentBuilder;

const DEPTH: usize = 8_000;
const BUDGET_MB: u64 = 160;

/// The process's peak resident set, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

#[test]
fn an_8000_deep_chain_builds_within_its_label_budget() {
    let before = vm_hwm_kb();
    let mut b = DocumentBuilder::new();
    for i in 0..DEPTH {
        b.open_element(if i % 2 == 0 { "a" } else { "b" });
    }
    for _ in 0..DEPTH {
        b.close_element();
    }
    let doc = b.finish();
    let rise_mb = (vm_hwm_kb() - before) / 1024;
    println!("a {DEPTH}-deep chain raised VmHWM by {rise_mb} MB");

    assert_eq!(doc.node_types().len(), DEPTH);
    let deepest = doc.node(xmldom::NodeId(DEPTH as u32 - 1)).node_type;
    assert_eq!(doc.node_types().depth(deepest), DEPTH - 1);
    assert!(
        rise_mb < BUDGET_MB,
        "building a {DEPTH}-deep chain raised VmHWM by {rise_mb} MB (budget {BUDGET_MB} MB)"
    );
}
