//! CLI driver for the workspace invariant lints.
//!
//! ```text
//! cargo run -p asb-analyze -- check [--root DIR]   lint the workspace
//! cargo run -p asb-analyze -- explain <rule>       print a rule's rationale
//! cargo run -p asb-analyze -- list                 list all rules
//! ```
//!
//! `check` prints every finding and exits 0 when there are none, 1 when
//! there are any (2 on a usage or I/O error). There is no allowlist and
//! deliberately no `--fix`: each finding needs a human to either
//! restructure the code or write the rule's justification marker beside it.

use std::path::PathBuf;
use std::process::ExitCode;

use asb_analyze::{check_workspace, rule, RULES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: asb-analyze <command>\n\n\
         commands:\n  \
         check [--root DIR]   lint the workspace (exit 1 on violations)\n  \
         explain <rule>       print a rule's full rationale\n  \
         list                 list all rules"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            let root = match &args[1..] {
                [] => PathBuf::from("."),
                [flag, dir] if flag == "--root" => PathBuf::from(dir),
                _ => return usage(),
            };
            run_check(&root)
        }
        Some("explain") => match args.get(1).and_then(|id| rule(id)) {
            Some(r) => {
                println!("[{}] {}\n\n{}", r.id, r.summary, r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "unknown rule; available: {}",
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                );
                ExitCode::from(2)
            }
        },
        Some("list") => {
            for r in RULES {
                println!("{:12} {}", r.id, r.summary);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn run_check(root: &std::path::Path) -> ExitCode {
    let violations = match check_workspace(root) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("asb-analyze: {msg}");
            return ExitCode::from(2);
        }
    };
    for v in &violations {
        println!("{v}");
    }
    println!("asb-analyze: {} violation(s)", violations.len());
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("run `cargo run -p asb-analyze -- explain <rule>` for rationale");
        ExitCode::FAILURE
    }
}
