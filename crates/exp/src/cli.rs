//! The flag reader of the command-line front ends (`repro`, `probe`,
//! `trace`, `serve`): each reads its flags from the [`Args`] that [`main`]
//! hands it, and every refusal is one `error: …` line and exit status 1.

use asb_core::PolicyKind;
use asb_workload::{DatasetKind, QuerySetSpec, Scale};
use std::process::ExitCode;
use std::str::FromStr;

/// Runs a front end on the process arguments (program name skipped).
/// `Ok` exits 0; `Err(message)` prints `error: message` and exits 1.
pub fn main(body: impl FnOnce(Args) -> Result<(), String>) -> ExitCode {
    match body(Args(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command-line arguments not read yet.
pub struct Args(std::iter::Skip<std::env::Args>);

impl Iterator for Args {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
    }

    /// A count that must be at least 1 (a capacity, a shard count, …).
    pub fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.parse(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A scale name: `tiny`, `small`, `medium`, `large` or `paper`.
    pub fn scale(&mut self, flag: &str) -> Result<Scale, String> {
        let v = self.value(flag)?;
        Scale::from_name(&v).ok_or(format!("unknown scale {v}"))
    }

    /// A database number: `1` (mainland) or `2` (world).
    pub fn db(&mut self, flag: &str) -> Result<DatasetKind, String> {
        match self.value(flag)?.as_str() {
            "1" => Ok(DatasetKind::Mainland),
            "2" => Ok(DatasetKind::World),
            o => Err(format!("unknown db {o}")),
        }
    }

    /// A query-set name, anything [`QuerySetSpec::from_name`] accepts.
    pub fn set(&mut self, flag: &str) -> Result<QuerySetSpec, String> {
        let v = self.value(flag)?;
        QuerySetSpec::from_name(&v).ok_or(format!("unknown query set {v}"))
    }

    /// Anything [`PolicyKind::from_name`] accepts.
    pub fn policy(&mut self, flag: &str) -> Result<PolicyKind, String> {
        let v = self.value(flag)?;
        PolicyKind::from_name(&v).ok_or(format!("unknown policy {v}"))
    }
}

/// The refusal of an argument no front end reads.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument {arg}")
}

/// Refuses a pool with more shards than pages: every shard needs a page.
pub fn check_shards(shards: usize, capacity: usize) -> Result<(), String> {
    if shards > capacity {
        return Err(format!(
            "--shards ({shards}) must not exceed --capacity ({capacity}): every shard needs a page"
        ));
    }
    Ok(())
}
