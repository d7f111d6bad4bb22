//! `repro` — regenerate the data figures of the EDBT 2002 paper.
//!
//! ```text
//! repro [--figure N]... [--scale tiny|small|medium|large|paper]
//!       [--seed S] [--json PATH]
//! ```
//!
//! Without `--figure`, every data figure (4–9, 12–14) is produced. Text
//! tables go to stdout; `--json` additionally writes the structured tables.

use asb_exp::{extension, figure, Lab, EXTENSIONS, FIGURE_IDS};
use asb_workload::Scale;
use std::process::ExitCode;

struct Args {
    figures: Vec<u8>,
    extensions: Vec<String>,
    scale: Scale,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut extensions = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut json = None;
    let ext_names: Vec<&str> = EXTENSIONS.iter().map(|(name, _)| *name).collect();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = it.next().ok_or("--figure needs a number")?;
                let id: u8 = v.parse().map_err(|_| format!("bad figure id: {v}"))?;
                if !FIGURE_IDS.contains(&id) {
                    return Err(format!(
                        "figure {id} has no data; available: {FIGURE_IDS:?} \
                         (figures 1-3, 10, 11 are illustrations)"
                    ));
                }
                figures.push(id);
            }
            "--ext" | "-e" => {
                let v = it.next().ok_or("--ext needs a name")?;
                if v != "all" && !ext_names.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown extension {v}; available: {ext_names:?} or 'all'"
                    ));
                }
                extensions.push(v);
            }
            "--scale" | "-s" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = Scale::from_name(&v).ok_or(format!("unknown scale: {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--json" => {
                json = Some(it.next().ok_or("--json needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the figures of Brinkhoff, EDBT 2002\n\n\
                     Usage: repro [--figure N]... [--ext NAME]... \
                     [--scale tiny|small|medium|large|paper] [--seed S] [--json PATH]\n\n\
                     Data figures: {FIGURE_IDS:?}\n\
                     Extensions: {ext_names:?} or 'all'"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if figures.is_empty() && extensions.is_empty() {
        figures = FIGURE_IDS.to_vec();
    }
    Ok(Args {
        figures,
        extensions,
        scale,
        seed,
        json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# reproducing figures {:?} at scale {:?} (seed {})",
        args.figures, args.scale, args.seed
    );
    let mut lab = Lab::new(args.scale, args.seed);
    let mut all = Vec::new();
    for &id in &args.figures {
        // Real elapsed time is reported next to simulated time by design.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let tables = match figure(id, &mut lab) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: figure {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "# figure {id}: {} table(s) in {:.1?}",
            tables.len(),
            started.elapsed()
        );
        for t in &tables {
            println!("{}", t.render_text());
        }
        all.extend(tables);
    }
    for name in &args.extensions {
        // Real elapsed time is reported next to simulated time by design.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let tables = match extension(name, args.scale, args.seed) {
            Ok(t) => t.expect("extension names validated during parsing"),
            Err(e) => {
                eprintln!("error: extension {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "# extension {name}: {} table(s) in {:.1?}",
            tables.len(),
            started.elapsed()
        );
        for t in &tables {
            println!("{}", t.render_text());
        }
        all.extend(tables);
    }
    if let Some(path) = args.json {
        match serde_json::to_string_pretty(&all)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(&path, s).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("# wrote {} tables to {path}", all.len()),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
