//! Helpers shared by the integration tests.

pub mod legacy_wire;
