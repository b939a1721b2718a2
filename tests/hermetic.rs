//! Hermeticity guard: the workspace must build with zero external
//! dependencies (see DESIGN.md). This test walks every `Cargo.toml` in
//! the workspace and fails if any dependency is not a `path` dependency
//! (directly, or via `workspace = true` resolving to a `path` entry in
//! the root manifest) — so dependency creep is a test failure, not a
//! code-review nit.

use std::path::{Path, PathBuf};

/// A `name = ...` entry found in a dependency section.
#[derive(Debug)]
struct DepLine {
    manifest: PathBuf,
    section: String,
    name: String,
    spec: String,
}

fn dependency_sections(manifest: &Path) -> Vec<DepLine> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let in_dep_section = matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies" | "workspace.dependencies"
        ) || section.starts_with("target.")
            && section.ends_with("dependencies");
        if !in_dep_section {
            continue;
        }
        if let Some((name, spec)) = line.split_once('=') {
            deps.push(DepLine {
                manifest: manifest.to_path_buf(),
                section: section.clone(),
                name: name.trim().to_string(),
                spec: spec.trim().to_string(),
            });
        }
    }
    deps
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/hermes; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() >= 15,
        "expected the root + 14 crate manifests, found {}",
        manifests.len()
    );

    let mut violations = Vec::new();
    for manifest in &manifests {
        for dep in dependency_sections(manifest) {
            let is_root = dep.section == "workspace.dependencies";
            let hermetic = if is_root {
                // Root entries must point into the workspace by path.
                dep.spec.contains("path =") || dep.spec.contains("path=")
            } else {
                // Crate entries must defer to the root or use a path.
                dep.spec.contains("workspace = true")
                    || dep.spec.contains("workspace=true")
                    || dep.spec.contains("path =")
                    || dep.spec.contains("path=")
            };
            if !hermetic {
                violations.push(format!(
                    "{} [{}]: `{} = {}` is not a path dependency",
                    dep.manifest.display(),
                    dep.section,
                    dep.name,
                    dep.spec
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-hermetic dependencies found (the workspace must build offline \
         with zero external crates — see DESIGN.md):\n{}",
        violations.join("\n")
    );
}

#[test]
fn workspace_dependency_names_match_crate_directories() {
    // Every `path = "crates/<dir>"` in the root manifest must exist.
    let root = workspace_root();
    for dep in dependency_sections(&root.join("Cargo.toml")) {
        if let Some(idx) = dep.spec.find("crates/") {
            let rest = &dep.spec[idx..];
            let dir: String = rest
                .chars()
                .take_while(|c| !matches!(c, '"' | '\'' | ' '))
                .collect();
            assert!(
                root.join(&dir).join("Cargo.toml").is_file(),
                "{} points at missing crate directory {dir}",
                dep.name
            );
        }
    }
}
