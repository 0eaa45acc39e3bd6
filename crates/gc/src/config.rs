//! Collector tuning knobs.

use crate::CostModel;

/// Tuning parameters shared by the collectors.
///
/// Defaults mirror the paper's setup: fixed heap and young sizes (enforced by
/// [`HeapConfig`]), a G1-like tenuring threshold, and incremental mixed
/// collections.
///
/// [`HeapConfig`]: polm2_heap::HeapConfig
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Young-generation collections an object must survive before promotion.
    pub tenure_threshold: u8,
    /// Young-to-survivor size ratio (the `-XX:SurvivorRatio` analogue):
    /// survivors beyond `young_bytes / survivor_ratio` are promoted
    /// prematurely, as in G1.
    pub survivor_ratio: u64,
    /// Start mixed collections when committed bytes exceed this fraction of
    /// the total heap.
    pub mixed_trigger_fraction: f64,
    /// Compact an old region when its live fraction is below this value;
    /// denser regions are left in place (they would cost more than they
    /// free).
    pub compact_live_fraction: f64,
    /// Upper bound on regions swept+compacted per mixed pause (G1's
    /// incremental collection-set sizing).
    pub max_compact_regions_per_pause: u32,
    /// Mixed pauses served by one (conceptually concurrent) marking cycle
    /// before the next cycle runs.
    pub mark_cycle_uses: u32,
    /// Worker threads for the stop-the-world mark; evacuation is serial.
    /// Results are bit-identical at any worker count (see DESIGN.md §15);
    /// workers shorten the wall-clock mark, never the simulated trajectory.
    /// `1` keeps the serial tracer.
    pub gc_workers: usize,
    /// The pause-pricing coefficients.
    pub cost: CostModel,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            tenure_threshold: 6,
            survivor_ratio: 8,
            mixed_trigger_fraction: 0.60,
            compact_live_fraction: 0.75,
            max_compact_regions_per_pause: 48,
            mark_cycle_uses: 2,
            gc_workers: 1,
            cost: CostModel::default(),
        }
    }
}

impl GcConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message for out-of-range fractions or a zero compaction
    /// budget.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.mixed_trigger_fraction) {
            return Err("mixed_trigger_fraction must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.compact_live_fraction) {
            return Err("compact_live_fraction must be within [0, 1]".into());
        }
        if self.max_compact_regions_per_pause == 0 {
            return Err("max_compact_regions_per_pause must be positive".into());
        }
        if self.survivor_ratio == 0 {
            return Err("survivor_ratio must be positive".into());
        }
        if self.mark_cycle_uses == 0 {
            return Err("mark_cycle_uses must be positive".into());
        }
        if self.gc_workers == 0 {
            return Err("gc_workers must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GcConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_fractions_rejected() {
        let c = GcConfig {
            mixed_trigger_fraction: 1.5,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GcConfig {
            compact_live_fraction: -0.1,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GcConfig {
            max_compact_regions_per_pause: 0,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GcConfig {
            survivor_ratio: 0,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GcConfig {
            mark_cycle_uses: 0,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GcConfig {
            gc_workers: 0,
            ..GcConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
