//! Text codecs over the [`serde::Value`] data model.

pub mod json;
pub(crate) mod toml;
