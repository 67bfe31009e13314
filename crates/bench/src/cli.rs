//! The `repro` command line, parsed in one place:
//!
//! * `repro <entry>… | all` runs paper entries ([`crate::paper::ENTRIES`]),
//!   in the order given; `all` is every entry;
//! * `repro audit [flags]` is the static plan audit, `repro profile
//!   [flags]` the runtime profile; each takes only its own flags, in any
//!   order, a repeat harmless;
//! * `--help` (or `-h`) anywhere prints every entry, every flag and the
//!   `XFORM_*` environment registry from [`xform_core::env::list`];
//! * anything unrecognized — an entry, a flag, a flag after an entry — is a
//!   usage error, which `repro` answers with exit `2` (exit `1` is a failed
//!   gate).

use xform_core::cachemodel::{CacheGeometry, CACHE_GEOM_ENV};
use xform_core::env::env_setting;

use crate::paper::{Entry, ENTRIES};

/// One boolean flag a command accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The literal argument, including the leading dashes (`"--check"`).
    pub name: &'static str,
    /// One help line.
    pub doc: &'static str,
}

/// The CI gate: a compact pass that exits non-zero on any violation.
pub const CHECK: Flag = Flag {
    name: "--check",
    doc: "run the CI gate: compact pass, non-zero exit on any violation",
};

/// The machine-readable mirror.
pub const JSON: Flag = Flag {
    name: "--json",
    doc: "write the machine-readable BENCH_*.json mirror",
};

/// `audit`: replay through the reuse-distance cache model.
pub const CACHE: Flag = Flag {
    name: "--cache",
    doc: "additionally audit through the reuse-distance cache model",
};

/// `audit`: race certification.
pub const CERTIFY: Flag = Flag {
    name: "--certify",
    doc: "race-certify every plan for wave-parallel execution",
};

/// `audit`: access-path certification.
pub const ACCESS: Flag = Flag {
    name: "--access",
    doc: "access-path-certify every plan, logically and over its arena's coloring",
};

/// The flags of `repro audit`.
pub const AUDIT_FLAGS: &[Flag] = &[CHECK, JSON, CACHE, CERTIFY, ACCESS];

/// The flags of `repro profile`.
pub const PROFILE_FLAGS: &[Flag] = &[CHECK, JSON];

/// Which of a command's flags were passed.
#[derive(Debug, Default)]
pub struct Flags {
    present: Vec<Flag>,
}

impl Flags {
    /// Whether `flag` was passed.
    pub fn has(&self, flag: Flag) -> bool {
        self.present.contains(&flag)
    }
}

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    /// `--help`: print [`render_help`].
    Help,
    /// Paper entries, in the order to run them.
    Entries(Vec<&'static Entry>),
    /// `repro audit`.
    Audit(Flags),
    /// `repro profile`.
    Profile(Flags),
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming what was not recognized, for a usage error.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let flags = |known: &[Flag]| -> Result<Flags, String> {
        let mut parsed = Flags::default();
        for arg in &args[1..] {
            match known.iter().find(|f| f.name == arg) {
                Some(&f) if !parsed.has(f) => parsed.present.push(f),
                Some(_) => {}
                None => {
                    let valid: Vec<&str> = known.iter().map(|f| f.name).collect();
                    return Err(format!(
                        "{} takes {} (not `{arg}`)",
                        args[0],
                        valid.join(", ")
                    ));
                }
            }
        }
        Ok(parsed)
    };
    match args.first().map(String::as_str) {
        None => Err("name an entry, `all`, `audit` or `profile` (see --help)".into()),
        Some("audit") => flags(AUDIT_FLAGS).map(Command::Audit),
        Some("profile") => flags(PROFILE_FLAGS).map(Command::Profile),
        Some(_) => {
            let mut entries: Vec<&'static Entry> = Vec::new();
            for arg in &args {
                let named: Vec<&'static Entry> = match arg.as_str() {
                    "all" => ENTRIES.iter().collect(),
                    name => match ENTRIES.iter().find(|e| e.name == name) {
                        Some(e) => vec![e],
                        None => return Err(format!("unknown entry `{name}` (see --help)")),
                    },
                };
                for e in named {
                    if !entries.iter().any(|seen| seen.name == e.name) {
                        entries.push(e);
                    }
                }
            }
            Ok(Command::Entries(entries))
        }
    }
}

/// The `XFORM_CACHE_GEOM` override, read once: `None` when unset or
/// disabled, so each command keeps its own default.
///
/// # Errors
///
/// A set spec that does not parse, named with the variable.
pub fn cache_geometry() -> Result<Option<CacheGeometry>, String> {
    match env_setting(CACHE_GEOM_ENV) {
        None => Ok(None),
        Some(spec) => CacheGeometry::parse(&spec).map(Some).ok_or_else(|| {
            format!("{CACHE_GEOM_ENV}={spec:?} is not a SIZE[:LINE[:ASSOC]],... cache geometry")
        }),
    }
}

/// The `--help` text: usage, every entry, every flag, and the `XFORM_*`
/// environment registry — every knob that can change what `repro` does.
pub fn render_help() -> String {
    let mut out = String::from(
        "repro — the paper's tables, figures and studies; the plan audit and profile\n\n\
         usage: repro <entry>... | all\n       \
         repro audit [--check] [--json] [--cache] [--certify] [--access]\n       \
         repro profile [--check] [--json]\n\nentries:\n",
    );
    let width = ENTRIES.iter().map(|e| e.name.len()).max().unwrap_or(0);
    for e in ENTRIES {
        out.push_str(&format!("  {:width$}  {}\n", e.name, e.about));
    }
    out.push_str(&format!(
        "  {:width$}  every entry above, in order\n",
        "all"
    ));
    for (command, flags) in [("audit", AUDIT_FLAGS), ("profile", PROFILE_FLAGS)] {
        out.push_str(&format!("\n{command} flags:\n"));
        for f in flags {
            out.push_str(&format!("  {:9}  {}\n", f.name, f.doc));
        }
    }
    out.push_str("\n  --help     print this help and exit\n\n");
    out.push_str(&xform_core::env::list());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn commands_take_their_own_flags_only() {
        let Ok(Command::Audit(f)) = parsed(&["audit", "--cache", "--check", "--cache"]) else {
            panic!("audit parses");
        };
        assert!(f.has(CACHE) && f.has(CHECK) && !f.has(JSON));
        assert!(matches!(parsed(&["profile", "--json"]), Ok(Command::Profile(f)) if f.has(JSON)));
        assert!(parsed(&["profile", "--cache"]).is_err());
        assert!(parsed(&["table1", "--json"]).is_err());
        assert!(parsed(&[]).is_err());
    }

    #[test]
    fn entries_run_in_the_order_named_once_each() {
        let Ok(Command::Entries(e)) = parsed(&["fig6", "table1", "fig6"]) else {
            panic!("entries parse");
        };
        assert_eq!(
            e.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["fig6", "table1"]
        );
        let Ok(Command::Entries(all)) = parsed(&["table1", "all"]) else {
            panic!("all parses");
        };
        assert_eq!(all.len(), ENTRIES.len());
        assert!(parsed(&["table9"]).is_err());
        assert!(matches!(parsed(&["table9", "-h"]), Ok(Command::Help)));
    }

    #[test]
    fn help_lists_every_entry_flag_and_env_knob() {
        let help = render_help();
        let flags = AUDIT_FLAGS.iter().chain(PROFILE_FLAGS).map(|f| f.name);
        let entries = ENTRIES.iter().map(|e| e.name);
        let knobs = xform_core::env::REGISTRY.iter().map(|s| s.name);
        for name in flags.chain(entries).chain(knobs).chain(["--help"]) {
            assert!(help.contains(name), "help must list {name}");
        }
    }
}
