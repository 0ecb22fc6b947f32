//! Mempool aliasing: live tensor regions in the shared host/device
//! memory pool must never overlap (§4.2).
//!
//! The fast-sync design keeps activations in persistently-mapped
//! buffers that both the GPU and NPU address directly. Nothing in the
//! driver re-checks ownership on each kernel, so a layout that maps two
//! simultaneously-live tensors onto overlapping byte ranges silently
//! corrupts one of them mid-inference. The checker takes a region table
//! — address range plus live interval for each tensor — and rejects any
//! pair that overlaps in both space and time.

use serde::{Deserialize, Serialize};

use crate::diag::Diagnostic;
use crate::rules;

/// One tensor's placement in the pool: an address range and the
/// half-open interval of execution steps during which it is live.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorRegion {
    /// Human-readable name, e.g. `"layer3.ffn_act"`.
    pub label: String,
    /// Byte offset of the region within the pool.
    pub offset: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// First execution step at which the tensor is live (inclusive).
    pub live_from: u64,
    /// Step after the last use (exclusive); `live_from < live_until`.
    pub live_until: u64,
}

impl TensorRegion {
    fn overlaps_space(&self, other: &Self) -> bool {
        self.offset < other.offset + other.bytes && other.offset < self.offset + self.bytes
    }

    fn overlaps_time(&self, other: &Self) -> bool {
        self.live_from < other.live_until && other.live_from < self.live_until
    }
}

/// Check a pool layout for aliasing between live tensor regions.
pub fn check_regions(regions: &[TensorRegion], location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for r in regions {
        if r.bytes == 0 {
            out.push(Diagnostic::new(
                rules::MEMPOOL_ALIASING,
                location,
                format!("region '{}' is empty (0 bytes)", r.label),
            ));
        }
        if r.live_from >= r.live_until {
            out.push(Diagnostic::new(
                rules::MEMPOOL_ALIASING,
                location,
                format!(
                    "region '{}' has an empty or inverted live range [{}, {})",
                    r.label, r.live_from, r.live_until
                ),
            ));
        }
    }

    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            if a.overlaps_space(b) && a.overlaps_time(b) {
                out.push(Diagnostic::with_suggestion(
                    rules::MEMPOOL_ALIASING,
                    location,
                    format!(
                        "regions '{}' [{}, {}) and '{}' [{}, {}) alias while both live",
                        a.label,
                        a.offset,
                        a.offset + a.bytes,
                        b.label,
                        b.offset,
                        b.offset + b.bytes
                    ),
                    Some("serialize the tensors' lifetimes or separate their slots".into()),
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(label: &str, offset: u64, bytes: u64, from: u64, until: u64) -> TensorRegion {
        TensorRegion {
            label: label.into(),
            offset,
            bytes,
            live_from: from,
            live_until: until,
        }
    }

    #[test]
    fn accepts_disjoint_addresses() {
        let rs = [region("x", 0, 4096, 0, 10), region("y", 4096, 4096, 0, 10)];
        assert!(check_regions(&rs, "test").is_empty());
    }

    #[test]
    fn accepts_slot_reuse_across_time() {
        // The §4.2 pool pattern: the same slot serves layer after layer
        // because lifetimes never overlap.
        let rs = [
            region("layer0.act", 0, 1 << 20, 0, 2),
            region("layer1.act", 0, 1 << 20, 2, 4),
            region("layer2.act", 0, 1 << 20, 4, 6),
        ];
        assert!(check_regions(&rs, "test").is_empty());
    }

    #[test]
    fn rejects_live_overlap() {
        let rs = [region("x", 0, 8192, 0, 10), region("y", 4096, 8192, 5, 15)];
        let diags = check_regions(&rs, "test");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("alias"), "{diags:?}");
    }

    #[test]
    fn rejects_inverted_live_range() {
        let rs = [region("x", 0, 4096, 7, 7)];
        let diags = check_regions(&rs, "test");
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("inverted") || d.message.contains("empty or inverted")),
            "{diags:?}"
        );
    }

    #[test]
    fn rejects_empty_region() {
        let rs = [region("x", 0, 0, 0, 1)];
        let diags = check_regions(&rs, "test");
        assert!(
            diags.iter().any(|d| d.message.contains("0 bytes")),
            "{diags:?}"
        );
    }

    #[test]
    fn touching_regions_do_not_alias() {
        // End-exclusive: [0, 4096) and [4096, 8192) share no byte.
        let rs = [region("x", 0, 4096, 0, 10), region("y", 4096, 4096, 0, 10)];
        assert!(check_regions(&rs, "test").is_empty());
    }
}
