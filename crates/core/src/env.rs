//! The environment-settings registry: every `XFORM_*` knob the crate
//! family reads, folded into one table so tools can enumerate them.
//!
//! Each setting keeps its feature-local reader (`XFORM_SANITIZE` through
//! [`sanitize_enabled`], `XFORM_CACHE_GEOM` through [`crate::cachemodel`])
//! — this module owns the *catalog* and the one grammar every switch
//! shares ([`env_setting`]): unset, empty, `0`, `false`, `off`, and `no`
//! mean *disabled*; anything else enables and is parsed
//! feature-specifically. The bench harness's `repro --help` prints
//! [`list`], so a knob that is not registered here is invisible; add new
//! env vars to [`REGISTRY`] in the same change that introduces them.

/// Whether a switch's value enables it: unset, empty (after trimming),
/// `0`, `false`, `off`, and `no` (case-insensitive) all disable; anything
/// else enables. The pure half of [`env_setting`], separated so it can be
/// unit-tested without mutating the process environment.
pub fn value_enables(value: Option<&str>) -> bool {
    let Some(v) = value else { return false };
    let v = v.trim();
    !(v.is_empty()
        || v == "0"
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("no"))
}

/// Reads env var `name` under the grammar every `XFORM_*` switch shares:
/// `None` when it disables ([`value_enables`]), the raw value otherwise,
/// for feature-specific parsing.
pub fn env_setting(name: &str) -> Option<String> {
    let raw = std::env::var(name).ok();
    value_enables(raw.as_deref()).then_some(raw).flatten()
}

/// `true` when `XFORM_SANITIZE` enables the arena's NaN-poison mode for
/// every run whose [`crate::plan::SanitizeMode`] defers to the
/// environment.
pub fn sanitize_enabled() -> bool {
    env_setting("XFORM_SANITIZE").is_some()
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct EnvSetting {
    /// The environment variable name.
    pub name: &'static str,
    /// Effective value when unset.
    pub default: &'static str,
    /// One-line description for `--help` output.
    pub doc: &'static str,
}

/// Every `XFORM_*` environment knob, in stable display order.
pub const REGISTRY: &[EnvSetting] = &[
    EnvSetting {
        name: "XFORM_SANITIZE",
        default: "off",
        doc: "the arena's poison mode: fill the slab, the record and every retired buffer with one NaN of its own, refuse an output that carries it",
    },
    EnvSetting {
        name: "XFORM_CACHE_GEOM",
        default: "`repro audit`: the modelled device's; `repro profile`: 16k:64:4,128k:64:8,512k:64:16",
        doc: "cache hierarchy `SIZE[:LINE[:ASSOC]],...` to analyze under; a malformed spec is an error",
    },
];

/// The registry formatted for `--help`: one `  NAME (default X)  doc`
/// line per knob.
pub fn list() -> String {
    let width = REGISTRY.iter().map(|s| s.name.len()).max().unwrap_or(0);
    let mut out = String::from("environment:\n");
    for s in REGISTRY {
        out.push_str(&format!(
            "  {:width$}  (default: {}) {}\n",
            s.name, s.default, s.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_switch_shares_one_enable_grammar() {
        for off in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("false"),
            Some("FALSE"),
            Some("off"),
            Some("Off"),
            Some("no"),
            Some(" 0 "),
        ] {
            assert!(!value_enables(off), "{off:?} must disable");
        }
        for on in [
            Some("1"),
            Some("true"),
            Some("yes"),
            Some("on"),
            Some("32k:64:8"),
        ] {
            assert!(value_enables(on), "{on:?} must enable");
        }
    }

    #[test]
    fn registry_lists_every_knob_once() {
        let listing = list();
        for s in REGISTRY {
            assert!(listing.contains(s.name), "{} missing from list()", s.name);
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate registry entry");
    }
}
