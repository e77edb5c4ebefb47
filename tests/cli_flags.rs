//! The `psc` command line rejects a malformed numeric flag value instead
//! of silently running with the default.

use std::process::Command;

#[test]
fn malformed_shards_value_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_psc"))
        .args(["campaign", "--traces", "16", "--shards", "two"])
        .output()
        .expect("run psc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "psc accepted --shards two; stderr: {stderr}");
    assert!(stderr.contains("bad --shards value"), "stderr: {stderr}");
}
