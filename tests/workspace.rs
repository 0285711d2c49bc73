//! Plain `cargo test` at the root tests what `[workspace]
//! default-members` selects. Without every crate under `crates/` in
//! that list it silently tests only the root package — a tenth of the
//! suite, none of the SIMD-vs-scalar differentials included.

use std::path::Path;

/// The entries of the root manifest's `[workspace] default-members`.
fn default_members(manifest: &str) -> Vec<String> {
    let mut in_workspace = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
        } else if in_workspace && line.starts_with("default-members") {
            let list = line.split_once('=').expect("default-members = [...]").1;
            return list
                .trim()
                .trim_start_matches('[')
                .trim_end_matches(']')
                .split(',')
                .map(|entry| entry.trim().trim_matches('"').to_string())
                .filter(|entry| !entry.is_empty())
                .collect();
        }
    }
    Vec::new()
}

#[test]
fn default_members_cover_the_root_and_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = default_members(&manifest);
    assert!(members.iter().any(|m| m == "."), "root package missing from {members:?}");
    let mut crates = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let dir = entry.expect("readable crates/ entry").path();
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        crates += 1;
        let name = dir.file_name().and_then(|n| n.to_str()).expect("UTF-8 crate dir");
        assert!(
            members.iter().any(|m| m == "crates/*" || *m == format!("crates/{name}")),
            "crates/{name} is not in [workspace] default-members {members:?}"
        );
    }
    assert!(crates > 0, "no crates found under crates/");
}
