//! Cell digests: the counters a correct run must reproduce exactly.

use std::collections::BTreeMap;
use std::fmt;

use mv_core::MmuCounters;

/// FNV-1a over the counters that define a cell's simulated outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Covers accesses, L1/L2 misses, walks, guest/nested/mid walk
    /// references, bound checks, translation cycles and VM exits.
    pub fn of(c: &MmuCounters, vm_exits: u64) -> Digest {
        let fields = [
            c.accesses,
            c.l1_misses,
            c.l2_misses,
            c.walks(),
            c.guest_walk_refs,
            c.nested_walk_refs,
            c.mid_walk_refs,
            c.bound_checks,
            c.translation_cycles,
            vm_exits,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Digest(h)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The seed the committed digests were recorded with.
pub const DEFAULT_SEED: u64 = 42;

/// Expected digests at [`DEFAULT_SEED`], keyed by (workload, cell).
pub fn expected() -> Result<BTreeMap<(String, String), Digest>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in include_str!("../expected_digests.txt").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [workload, cell, hex] = parts[..] else {
            return Err(format!(
                "expected_digests.txt:{}: want `workload cell digest`",
                n + 1
            ));
        };
        let d = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("expected_digests.txt:{}: {e}", n + 1))?;
        map.insert((workload.to_string(), cell.to_string()), Digest(d));
    }
    Ok(map)
}
