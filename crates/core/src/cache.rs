//! There is no result cache: every report is computed by the run loop.

/// The installed result cache: always `None`, because there is none.
///
/// The repository benchmark (`perfbench/`) still prints
/// `active().is_some()` as its `result_cache` context field. This stub
/// keeps that field compiling, and goes when the field does.
pub fn active() -> Option<std::convert::Infallible> {
    None
}
