//! Records the compiler version for the run header, so the benchmark
//! never has to spawn `rustc` at run time.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=COSTBENCH_RUSTC={}", version.trim());
    println!("cargo:rerun-if-env-changed=RUSTC");
}
