//! Public-API surface snapshot.
//!
//! Scans every workspace crate's `src/` tree for `pub` declarations and
//! compares the sorted listing against the committed snapshot at
//! `tests/public_api.txt`. An accidental API change (a renamed type, a
//! dropped re-export, a function made public by mistake) fails this
//! test with a diff; an intentional change is blessed by re-running
//! with `REGWIN_BLESS=1` and committing the updated snapshot.
//!
//! The scan is textual, not semantic (no `cargo public-api` offline):
//! it records the first line of every declaration whose visibility is
//! exactly `pub` — `pub(crate)`/`pub(super)` items are internal and
//! ignored — and stops at each file's `#[cfg(test)]` module, which by
//! workspace convention is the last item in a file.

use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/public_api.txt";

const DECL_KEYWORDS: [&str; 10] = [
    "fn ",
    "async fn ",
    "struct ",
    "enum ",
    "trait ",
    "mod ",
    "use ",
    "const ",
    "type ",
    "static ",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = match fs::read_dir(dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => return,
    };
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The declaration fragment of a `pub` line, or `None` if the line is
/// not a surface-relevant public declaration.
fn public_decl(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("pub ")?;
    if !DECL_KEYWORDS.iter().any(|k| rest.starts_with(k)) {
        return None;
    }
    // Keep only the declaration head: strip a trailing body opener or
    // multi-line argument list so rustfmt churn cannot move the
    // snapshot.
    let mut head = trimmed.trim_end();
    head = head.strip_suffix('{').unwrap_or(head).trim_end();
    head = head.strip_suffix('(').unwrap_or(head).trim_end();
    Some(head.to_string())
}

fn surface() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut roots: Vec<(String, PathBuf)> = vec![("regwin".into(), root.join("src"))];
    let mut crate_dirs: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ must exist")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = format!("regwin-{}", dir.file_name().unwrap().to_string_lossy());
        roots.push((name, dir.join("src")));
    }

    let mut lines = Vec::new();
    for (crate_name, src) in roots {
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let rel = file.strip_prefix(&src).unwrap().display().to_string();
            let text = fs::read_to_string(&file).expect("source file must be readable");
            for line in text.lines() {
                if line.trim() == "#[cfg(test)]" {
                    break;
                }
                if let Some(decl) = public_decl(line) {
                    lines.push(format!("{crate_name}/{rel}: {decl}"));
                }
            }
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn public_api_matches_the_committed_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let snapshot_path = root.join(SNAPSHOT);
    let current = surface();
    if std::env::var_os("REGWIN_BLESS").is_some() {
        fs::write(&snapshot_path, &current).expect("cannot write snapshot");
        return;
    }
    let committed = fs::read_to_string(&snapshot_path).unwrap_or_default();
    if committed == current {
        return;
    }
    let committed_set: std::collections::BTreeSet<&str> = committed.lines().collect();
    let current_set: std::collections::BTreeSet<&str> = current.lines().collect();
    let mut diff = String::new();
    for gone in committed_set.difference(&current_set) {
        diff.push_str(&format!("  - {gone}\n"));
    }
    for added in current_set.difference(&committed_set) {
        diff.push_str(&format!("  + {added}\n"));
    }
    panic!(
        "public API surface changed relative to {SNAPSHOT}:\n{diff}\
         If intentional, re-bless with: REGWIN_BLESS=1 cargo test --test public_api"
    );
}
