//! Plain `cargo test` at the root tests what `[workspace]
//! default-members` selects. Without every crate under `crates/` in
//! that list it silently tests only the root package — a tenth of the
//! suite, none of the SIMD-vs-scalar differentials included. The
//! manifests also declare no cargo feature beyond the one tier-1 runs,
//! so no test hides behind a feature nobody turns on. The count of
//! panic sites in library code is pinned, so any change to it shows in
//! the diff.

use std::path::{Path, PathBuf};

/// The non-blank, non-comment lines of one `[section]` of a manifest.
fn section<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    let mut inside = false;
    manifest.lines().map(str::trim).filter(move |line| {
        if line.starts_with('[') {
            inside = *line == header;
            return false;
        }
        inside && !line.is_empty() && !line.starts_with('#')
    })
}

/// The entries of the root manifest's `[workspace] default-members`.
fn default_members(manifest: &str) -> Vec<String> {
    let Some(line) = section(manifest, "[workspace]").find(|l| l.starts_with("default-members"))
    else {
        return Vec::new();
    };
    let list = line.split_once('=').expect("default-members = [...]").1;
    list.trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .map(|entry| entry.trim().trim_matches('"').to_string())
        .filter(|entry| !entry.is_empty())
        .collect()
}

/// Every crate directory under `crates/`.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|entry| entry.expect("readable crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect()
}

#[test]
fn default_members_cover_the_root_and_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = default_members(&manifest);
    assert!(members.iter().any(|m| m == "."), "root package missing from {members:?}");
    let crates = crate_dirs(root);
    for dir in &crates {
        let name = dir.file_name().and_then(|n| n.to_str()).expect("UTF-8 crate dir");
        assert!(
            members.iter().any(|m| m == "crates/*" || *m == format!("crates/{name}")),
            "crates/{name} is not in [workspace] default-members {members:?}"
        );
    }
    assert!(!crates.is_empty(), "no crates found under crates/");
}

/// `.unwrap()` and `.expect(` sites in the non-test text of
/// `crates/*/src/**/*.rs`: each file's text before its first
/// `#[cfg(test)]`. The count may only move with this constant, so
/// every added or removed panic site shows in review.
const PANIC_SITES: usize = 108;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn panic_site_ledger_matches_the_committed_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in crate_dirs(root) {
        rust_files(&dir.join("src"), &mut files);
    }
    let count: usize = files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file).expect("readable source file");
            let non_test = text.find("#[cfg(test)]").map_or(&text[..], |end| &text[..end]);
            non_test.matches(".unwrap()").count() + non_test.matches(".expect(").count()
        })
        .sum();
    assert_eq!(
        count, PANIC_SITES,
        "crates/*/src now has {count} non-test .unwrap()/.expect( sites; set PANIC_SITES to {count}"
    );
}

/// Every feature is a build configuration tier-1 must run. The one
/// tier-1 runs is `force-scalar` (root, forwarding to `adsim-tensor`);
/// anything else would gate code that no pinned command builds.
#[test]
fn force_scalar_is_the_only_cargo_feature() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut declaring = Vec::new();
    for dir in std::iter::once(root.to_path_buf()).chain(crate_dirs(root)) {
        let path = dir.join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path).expect("readable manifest");
        for line in section(&manifest, "[features]") {
            let feature = line.split_once('=').map_or(line, |(name, _)| name).trim();
            assert_eq!(feature, "force-scalar", "{} declares feature {feature:?}", path.display());
            declaring.push(dir.strip_prefix(root).expect("under the root").to_path_buf());
        }
    }
    assert_eq!(declaring, [PathBuf::new(), PathBuf::from("crates/tensor")]);
}
