//! Run every experiment binary in sequence (the full evaluation sweep);
//! each writes its own `BENCH_E*.json`.
//!
//! `cargo run -p bench --release --bin run_all`

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "e1_system_test",
    "e2_next_key",
    "e3_stats",
    "e4_escalation",
    "e5_sync_commit",
    "e6_timeout",
    "e7_commit_retry",
    "e8_chunked",
    "e9_archive_table",
    "e10_backup_restore",
    "e11_group_commit",
    "e12_agent_scaling",
    "e13_read_heavy",
    "e14_shard_scaling",
];

fn main() {
    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n################ {name} ################\n");
        let status = Command::new(bin_dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(*name);
        }
    }
    println!("\n################ summary ################");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn the_list_names_every_experiment_binary() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(dir)
            .expect("read src/bin")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter_map(|f| Some(f.strip_suffix(".rs")?.to_string()).filter(|f| f.starts_with('e')))
            .collect();
        bins.sort();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|e| e.to_string()).collect();
        listed.sort();
        assert_eq!(listed, bins, "run_all's EXPERIMENTS and src/bin/e*.rs differ");
    }
}
