//! The environment-settings registry: every `XFORM_*` knob the crate
//! family reads, folded into one table so tools can enumerate them.
//!
//! Each setting keeps its feature-local reader (`XFORM_SANITIZE` through
//! [`crate::sanitize::sanitize_enabled`], `XFORM_CACHE_GEOM` through
//! [`crate::cachemodel`]) — this module owns the *catalog*. The bench
//! harness's `repro --help` prints [`list`], so a knob that is not
//! registered here is invisible; add new env vars to [`REGISTRY`] in the
//! same change that introduces them.
//!
//! All switches share one enable grammar (see
//! [`crate::sanitize::env_setting`]): unset, empty, `0`, `false`, `off`,
//! and `no` mean *disabled*; anything else enables and is parsed
//! feature-specifically.

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
        doc: "shadow-access sanitizer: poison slabs/footprints and convict out-of-footprint reads",
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
