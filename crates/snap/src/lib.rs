//! # mtb-snap — versioned, bit-exact checkpoint/restore
//!
//! The simulator is deterministic: a run is a pure function of its
//! configuration. This crate makes runs *resumable* as well — the full
//! mutable state of an [`mtb_mpisim::Engine`] mid-run (machine, cores,
//! message matching, collective epochs, in-progress timelines, event
//! counter) serializes to a snapshot file and restores bit-identically,
//! so `run(0..T)` and `run(0..k) → snapshot → restore → run(k..T)`
//! produce byte-for-byte the same results, even across processes.
//!
//! * [`json`] — the workspace's hand-rolled lossless JSON codec
//!   (`u64` exact, `f64` via shortest-round-trip formatting). Moved here
//!   from the benchmark harness, which re-exports it.
//! * [`codec`] — [`mtb_mpisim::EngineState`] ↔ [`json::Json`], plus the
//!   canonical state hash the drift bisector compares.
//! * [`mod@file`] — the framed on-disk format: magic, schema version,
//!   configuration hash, event count and a content hash that is verified
//!   *before* the payload is parsed; atomic (tmp + fsync + rename)
//!   writes; corrupt or truncated files are rejected, never trusted.
//!
//! What a snapshot does **not** contain: static configuration (programs,
//! placement, latency model, topology, stepping mode, thread count). A
//! restore target is always built from the same configuration first; the
//! file header carries the caller's configuration hash so mismatched
//! restores are refused up front. `threads` stays excluded from that
//! hash, exactly as it is excluded from run-record hashes — parallelism
//! never changes results.

#![forbid(unsafe_code)]

pub mod codec;
pub mod file;
pub mod json;

pub use codec::{decode_engine_state, encode_engine_state, state_hash};
pub use file::{read_snapshot, write_snapshot, SnapError, Snapshot, SNAP_SCHEMA_VERSION};

/// 64-bit FNV-1a, the workspace's content-hash function (also the
/// benchmark harness's record hash and per-case seed, which re-export
/// this).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
