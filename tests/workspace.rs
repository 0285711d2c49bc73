//! Plain `cargo test` at the root tests what `[workspace]
//! default-members` selects. Without every crate under `crates/` in
//! that list it silently tests only the root package — a tenth of the
//! suite, none of the SIMD-vs-scalar differentials included. The
//! manifests also declare no cargo feature beyond the one tier-1 runs,
//! so no test hides behind a feature nobody turns on. The counts of
//! panic sites and of `pub` items in library code are pinned, so any
//! change to either shows in the diff, and the crate list in README and
//! the facade must match `crates/`.

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
const PANIC_SITES: usize = 102;

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

/// The text of every `crates/*/src/**/*.rs` file before its first
/// `#[cfg(test)]`: the library code both ledgers below count.
fn non_test_sources(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for dir in crate_dirs(root) {
        rust_files(&dir.join("src"), &mut files);
    }
    files
        .iter()
        .map(|file| {
            let mut text = std::fs::read_to_string(file).expect("readable source file");
            text.truncate(text.find("#[cfg(test)]").unwrap_or(text.len()));
            text
        })
        .collect()
}

#[test]
fn panic_site_ledger_matches_the_committed_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let count: usize = non_test_sources(root)
        .iter()
        .map(|text| text.matches(".unwrap()").count() + text.matches(".expect(").count())
        .sum();
    assert_eq!(
        count, PANIC_SITES,
        "crates/*/src now has {count} non-test .unwrap()/.expect( sites; set PANIC_SITES to {count}"
    );
}

/// `pub fn|struct|enum|trait|const|static|type|mod|use` declarations
/// in the same non-test text. An item is `pub` only when something
/// outside its crate names it — another crate, the root package's
/// `src/`, `tests/` or `examples/`, `benchmark/`, the crate's own bins
/// and benches, or a doctest — or when it appears in the signature of
/// one that is; everything else is `pub(crate)`, which this does not
/// count. The count may only fall.
const PUB_ITEMS: usize = 867;

/// Occurrences in `text` of `pub` followed by one of the counted
/// declaration keywords, each as a whole word.
fn pub_items(text: &str) -> usize {
    const KINDS: [&str; 9] =
        ["fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use"];
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let is_kind = |rest: &str| {
        KINDS.iter().any(|kind| rest.strip_prefix(kind).is_some_and(|t| !t.starts_with(is_ident)))
    };
    text.match_indices("pub ")
        .filter(|&(at, _)| !text[..at].ends_with(is_ident) && is_kind(&text[at + "pub ".len()..]))
        .count()
}

#[test]
fn pub_item_ledger_matches_the_committed_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let count: usize = non_test_sources(root).iter().map(|text| pub_items(text)).sum();
    assert_eq!(
        count, PUB_ITEMS,
        "crates/*/src now declares {count} non-test pub items; set PUB_ITEMS to {count}"
    );
}

/// Process-global mutable state in the same non-test text: each
/// `thread_local!` block, plus each `static` that is `mut` or whose type
/// is an atomic, `Mutex`, `RwLock`, `OnceLock` or `LazyLock`. State a
/// component can own is owned; the count may only fall.
const GLOBAL_STATE: usize = 16;

/// Lines of `text` that open a `thread_local!` block or declare a
/// counted mutable `static`.
fn global_state(text: &str) -> usize {
    const CELLS: [&str; 5] = ["Atomic", "Mutex<", "RwLock<", "OnceLock<", "LazyLock<"];
    text.lines()
        .map(|line| line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub "))
        .filter(|decl| {
            decl.starts_with("thread_local!")
                || decl.strip_prefix("static ").is_some_and(|rest| {
                    rest.starts_with("mut ")
                        || rest
                            .split_once(": ")
                            .is_some_and(|(_, ty)| CELLS.iter().any(|c| ty.starts_with(c)))
                })
        })
        .count()
}

#[test]
fn global_state_ledger_matches_the_committed_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let count: usize = non_test_sources(root).iter().map(|text| global_state(text)).sum();
    assert_eq!(
        count, GLOBAL_STATE,
        "crates/*/src now holds {count} thread_local! blocks and mutable statics; \
         set GLOBAL_STATE to {count}"
    );
}

/// The crate names under `crates/`, sorted.
fn crate_names(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = crate_dirs(root)
        .iter()
        .map(|dir| dir.file_name().and_then(|n| n.to_str()).expect("UTF-8 crate dir").to_string())
        .collect();
    names.sort();
    names
}

/// README's crate table has one `adsim-<name>` row per crate and the
/// facade one `pub use adsim_<name> as <name>;` per crate but the
/// bench harness, and neither lists a crate that is gone, so folding
/// or adding a crate cannot leave the docs behind.
#[test]
fn readme_table_and_facade_list_every_crate_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names = crate_names(root);
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut rows: Vec<String> = readme
        .lines()
        .filter_map(|line| Some(line.strip_prefix("| `adsim-")?.split_once("` |")?.0.to_string()))
        .collect();
    rows.sort();
    assert_eq!(rows, names, "README crate-table rows vs crates/");
    let facade = std::fs::read_to_string(root.join("src/lib.rs")).expect("src/lib.rs");
    let mut reexports: Vec<String> = facade
        .lines()
        .filter_map(|line| {
            let reexport = line.strip_prefix("pub use adsim_")?.strip_suffix(';')?;
            let (name, alias) = reexport.split_once(" as ")?;
            assert_eq!(name, alias, "facade re-exports adsim_{name} as {alias}");
            Some(name.to_string())
        })
        .collect();
    reexports.sort();
    let expected: Vec<String> = names.into_iter().filter(|name| name != "bench").collect();
    assert_eq!(reexports, expected, "src/lib.rs re-exports vs crates/ (bench excluded)");
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
