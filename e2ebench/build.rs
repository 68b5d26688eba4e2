//! Stamps build provenance into the benchmark binary: the repository
//! commit (read from `.git` without running git, so it works offline and
//! in checkouts that are not repositories), the compiler version and the
//! build profile.

use std::path::Path;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new("../.git");
    let commit = read_commit(git).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=E2EBENCH_COMMIT={commit}");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=E2EBENCH_PROFILE={profile}");
}

/// Resolves `HEAD` to a commit hash: a detached hash directly, or a
/// branch ref through its loose ref file or `packed-refs`. Registers
/// every file it reads for rebuild tracking; files that do not exist are
/// not registered, so a checkout without `.git` never forces a rebuild.
fn read_commit(git: &Path) -> Option<String> {
    let head_path = git.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose = git.join(reference);
    if let Ok(hash) = std::fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return Some(hash.trim().to_string());
    }
    let packed_path = git.join("packed-refs");
    let packed = std::fs::read_to_string(&packed_path).ok()?;
    println!("cargo:rerun-if-changed={}", packed_path.display());
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
