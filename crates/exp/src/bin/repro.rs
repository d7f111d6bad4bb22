//! `repro` — regenerate the data figures of the EDBT 2002 paper.
//!
//! ```text
//! repro [--figure N]... [--scale tiny|small|medium|large|paper]
//!       [--seed S] [--json PATH]
//! ```
//!
//! Without `--figure`, every data figure (4–9, 12–14) is produced. Text
//! tables go to stdout; `--json` additionally writes the structured tables.

use asb_exp::cli::{self, Args};
use asb_exp::{extension, figure, Lab, EXTENSIONS, FIGURE_IDS};
use asb_workload::Scale;
use std::process::ExitCode;

/// One requested table set.
enum Job {
    Figure(u8),
    Extension(String),
}

fn main() -> ExitCode {
    cli::main(repro)
}

fn repro(mut args: Args) -> Result<(), String> {
    let mut figures = Vec::new();
    let mut extensions = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut json = None;
    let ext_names: Vec<&str> = EXTENSIONS.iter().map(|(name, _)| *name).collect();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let id: u8 = args.parse(&arg)?;
                if !FIGURE_IDS.contains(&id) {
                    return Err(format!(
                        "figure {id} has no data; available: {FIGURE_IDS:?} \
                         (figures 1-3, 10, 11 are illustrations)"
                    ));
                }
                figures.push(id);
            }
            "--ext" | "-e" => {
                let v = args.value(&arg)?;
                if v != "all" && !ext_names.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown extension {v}; available: {ext_names:?} or 'all'"
                    ));
                }
                extensions.push(v);
            }
            "--scale" | "-s" => scale = args.scale(&arg)?,
            "--seed" => seed = args.parse(&arg)?,
            "--json" => json = Some(args.value(&arg)?),
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the figures of Brinkhoff, EDBT 2002\n\n\
                     Usage: repro [--figure N]... [--ext NAME]... \
                     [--scale tiny|small|medium|large|paper] [--seed S] [--json PATH]\n\n\
                     Data figures: {FIGURE_IDS:?}\n\
                     Extensions: {ext_names:?} or 'all'"
                );
                return Ok(());
            }
            other => return Err(cli::unknown(other)),
        }
    }
    if figures.is_empty() && extensions.is_empty() {
        figures = FIGURE_IDS.to_vec();
    }
    eprintln!("# reproducing figures {figures:?} at scale {scale:?} (seed {seed})");
    let mut lab = Lab::new(scale, seed);
    let jobs = figures.into_iter().map(Job::Figure);
    let mut all = Vec::new();
    for job in jobs.chain(extensions.into_iter().map(Job::Extension)) {
        // Real elapsed time is reported next to simulated time by design.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let (what, tables) = match job {
            Job::Figure(id) => (format!("figure {id}"), figure(id, &mut lab)),
            Job::Extension(name) => (
                format!("extension {name}"),
                extension(&name, scale, seed)
                    .map(|t| t.expect("extension names validated during parsing")),
            ),
        };
        let tables = tables.map_err(|e| format!("{what} failed: {e}"))?;
        eprintln!(
            "# {what}: {} table(s) in {:.1?}",
            tables.len(),
            started.elapsed()
        );
        for t in &tables {
            println!("{}", t.render_text());
        }
        all.extend(tables);
    }
    if let Some(path) = json {
        serde_json::to_string_pretty(&all)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(&path, s).map_err(|e| e.to_string()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("# wrote {} tables to {path}", all.len());
    }
    Ok(())
}
