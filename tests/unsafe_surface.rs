//! The workspace's `unsafe` surface is one block: the kernel dispatch
//! in `crates/fp16/src/wide.rs`. Every other library crate
//! forbids `unsafe` outright, and `pacq-fp16` denies it everywhere but
//! that block, which must carry a `// SAFETY:` note (clippy's
//! `undocumented_unsafe_blocks`, enforced by `clippy -D warnings`).

use std::path::{Path, PathBuf};

fn crates_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn exactly_one_unsafe_call_in_fp16_and_every_other_crate_forbids_it() {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(crates_dir())
        .expect("read crates/")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 15, "found only {} crates", crates.len());

    let mut allows = Vec::new();
    for krate in &crates {
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        for file in files {
            let count = read(&file).matches("allow(unsafe_code)").count();
            allows.extend(std::iter::repeat_n(file.clone(), count));
        }
        let name = krate.file_name().expect("crate dir name");
        let lib = read(&krate.join("src/lib.rs"));
        if name == "fp16" {
            assert!(
                lib.contains("#![deny(unsafe_code)]"),
                "fp16 must deny unsafe"
            );
            assert!(
                lib.contains("#![deny(clippy::undocumented_unsafe_blocks)]"),
                "fp16 must require a SAFETY note on its unsafe block"
            );
        } else {
            assert!(
                lib.contains("#![forbid(unsafe_code)]"),
                "crates/{} must forbid unsafe",
                name.to_string_lossy()
            );
        }
    }
    let wide = crates_dir().join("fp16/src/wide.rs");
    assert_eq!(
        allows,
        [wide],
        "the one `allow(unsafe_code)` must be the kernel dispatch"
    );
}
