//! The `congest-mwc` binary's input checks: inputs outside a command's
//! model exit with status 2 and a message, never a panic.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_congest-mwc"))
        .args(args)
        .output()
        .expect("congest-mwc runs")
}

#[test]
fn girth_rejects_weighted_and_directed_graphs() {
    let path =
        std::env::temp_dir().join(format!("congest_mwc_cli_girth_{}.txt", std::process::id()));
    std::fs::write(&path, "3 undirected\n0 1 5\n1 2 7\n2 0 9\n").unwrap();
    let weighted = format!("file:{}", path.display());
    for spec in [weighted.as_str(), "gnm:20:20:directed"] {
        let out = run(&["girth", "--graph", spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("undirected unweighted"), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
    let out = run(&["girth", "--graph", "ring:12"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("MWC weight: 12"));
}
