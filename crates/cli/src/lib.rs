//! Library half of the `cleanm` CLI: CSV schema inference, deterministic
//! report/plan rendering, and the golden-fixture harness shared by the
//! binary and the repo's integration tests.

pub mod fixtures;
pub mod render;
pub mod schema;

use cleanm_core::{CleanDb, EngineProfile};

/// The fixed seed fixtures and CLI defaults use, so randomized blockers
/// (k-means center sampling) are reproducible.
pub const DEFAULT_SEED: u64 = 42;

/// Resolve a `--profile` name to an engine profile. Accepts the canonical
/// names and common spellings, case-insensitively.
pub fn parse_profile(name: &str) -> Option<EngineProfile> {
    match name.to_ascii_lowercase().as_str() {
        "clean_db" | "cleandb" => Some(EngineProfile::clean_db()),
        "spark" | "spark_sql" | "sparksql" => Some(EngineProfile::spark_sql_like()),
        "bigdansing" | "big_dansing" => Some(EngineProfile::big_dansing_like()),
        _ => None,
    }
}

/// A session with the given profile and the deterministic default seed.
pub fn session(profile: EngineProfile) -> CleanDb {
    let mut db = CleanDb::new(profile);
    db.set_seed(DEFAULT_SEED);
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_resolve() {
        for name in ["clean_db", "CleanDB", "spark", "bigdansing"] {
            assert!(parse_profile(name).is_some(), "{name}");
        }
        for name in ["postgres", "adaptive"] {
            assert!(parse_profile(name).is_none(), "{name}");
        }
    }
}
