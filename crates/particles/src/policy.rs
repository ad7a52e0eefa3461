//! Adaptive global re-sort policy (paper section 4.4, Table 4 defaults).
//!
//! The GPMA keeps the index sorted but never moves particle data, so
//! memory coherence degrades over time. [`should_sort`] decides, once per
//! step, whether to run the counting-sort global reorder, using five
//! prioritised triggers evaluated against [`RankSortStats`]. Their
//! thresholds are the constants below, at the paper's Table 4 values:
//! no configuration varies them.

/// `warpx.min_sort_interval`: never sort more often than this.
pub const MIN_SORT_INTERVAL: u64 = 10;
/// `warpx.sort_interval`: always sort at least this often.
pub const SORT_INTERVAL: u64 = 50;
/// `warpx.sort_trigger_rebuild_count`.
pub const TRIGGER_REBUILD_COUNT: u64 = 100;
/// `warpx.sort_trigger_empty_ratio`: sort when free slots drop below.
pub const TRIGGER_EMPTY_RATIO: f64 = 0.15;
/// `warpx.sort_trigger_full_ratio`: sort when free slots exceed
/// (tile mostly holes => memory wasted and traversal sparse).
pub const TRIGGER_FULL_RATIO: f64 = 0.85;
/// `warpx.sort_trigger_perf_degrad`: sort when throughput falls below
/// this fraction of the post-sort baseline.
pub const PERF_DEGRAD: f64 = 0.80;

/// Why a global sort was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortReason {
    /// Trigger 2: the fixed sort interval elapsed.
    FixedInterval,
    /// Trigger 3: cumulative GPMA local rebuilds exceeded the limit.
    RebuildCount,
    /// Trigger 4: the tile-wide empty-slot ratio left its band.
    EmptyRatio,
    /// Trigger 5: step throughput degraded below the baseline fraction.
    PerfDegradation,
}

/// Per-rank counters the policy evaluates (the paper's `RankSortStats`).
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct RankSortStats {
    /// Steps since the last global sort.
    pub steps_since_sort: u64,
    /// Cumulative GPMA local rebuilds across all tiles since last sort.
    pub rebuilds_accum: u64,
    /// Global empty-slot ratio across all tiles (free / capacity).
    pub empty_ratio: f64,
    /// Most recent step throughput (particles/s); 0 disables trigger 5.
    pub perf_metric: f64,
    /// Baseline throughput recorded right after the last global sort.
    pub baseline_perf: f64,
}

impl RankSortStats {
    /// Resets after a global sort (the paper's `ResetRankSortCounters`).
    /// The baseline is cleared, not copied from `perf_metric`: that is
    /// the stale, degraded throughput of the step that requested the
    /// sort. The first post-sort measurement re-seeds it; until then
    /// trigger 5 is disarmed, so the policy cannot re-fire off its own
    /// sort's cost.
    pub fn reset(&mut self) {
        self.steps_since_sort = 0;
        self.rebuilds_accum = 0;
        self.baseline_perf = 0.0;
    }
}

/// Evaluates the five prioritised triggers
/// (the paper's `ShouldPerformGlobalSort`).
pub fn should_sort(stats: &RankSortStats) -> Option<SortReason> {
    // Trigger 1 (highest priority): minimum interval gate.
    if stats.steps_since_sort < MIN_SORT_INTERVAL {
        return None;
    }
    // Trigger 2: fixed interval.
    if stats.steps_since_sort >= SORT_INTERVAL {
        return Some(SortReason::FixedInterval);
    }
    // Trigger 3: accumulated local rebuilds.
    if stats.rebuilds_accum > TRIGGER_REBUILD_COUNT {
        return Some(SortReason::RebuildCount);
    }
    // Trigger 4: empty-slot ratio out of band.
    if stats.empty_ratio < TRIGGER_EMPTY_RATIO || stats.empty_ratio > TRIGGER_FULL_RATIO {
        return Some(SortReason::EmptyRatio);
    }
    // Trigger 5: performance degradation against the post-sort baseline.
    if stats.baseline_perf > 0.0
        && stats.perf_metric > 0.0
        && stats.perf_metric < PERF_DEGRAD * stats.baseline_perf
    {
        return Some(SortReason::PerfDegradation);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_stats(steps: u64) -> RankSortStats {
        RankSortStats {
            steps_since_sort: steps,
            rebuilds_accum: 0,
            empty_ratio: 0.5,
            perf_metric: 100.0,
            baseline_perf: 100.0,
        }
    }

    #[test]
    fn min_interval_gates_everything() {
        let mut s = healthy_stats(5);
        s.rebuilds_accum = 10_000; // Would otherwise trigger.
        s.empty_ratio = 0.0;
        assert_eq!(should_sort(&s), None);
    }

    #[test]
    fn fixed_interval_fires() {
        assert_eq!(should_sort(&healthy_stats(49)), None);
        assert_eq!(
            should_sort(&healthy_stats(50)),
            Some(SortReason::FixedInterval)
        );
    }

    #[test]
    fn rebuild_count_fires() {
        let mut s = healthy_stats(20);
        s.rebuilds_accum = 101;
        assert_eq!(should_sort(&s), Some(SortReason::RebuildCount));
    }

    #[test]
    fn empty_ratio_band() {
        let mut s = healthy_stats(20);
        s.empty_ratio = 0.10;
        assert_eq!(should_sort(&s), Some(SortReason::EmptyRatio));
        s.empty_ratio = 0.90;
        assert_eq!(should_sort(&s), Some(SortReason::EmptyRatio));
        s.empty_ratio = 0.5;
        assert_eq!(should_sort(&s), None);
    }

    #[test]
    fn perf_degradation_fires_when_enabled() {
        let mut s = healthy_stats(20);
        s.perf_metric = 70.0; // 70% of baseline < 80% threshold.
        assert_eq!(should_sort(&s), Some(SortReason::PerfDegradation));
    }

    #[test]
    fn simultaneous_triggers_name_the_highest_priority() {
        // Every trigger trips at once; dropping the winner each time
        // walks the priority order 2, 3, 4, 5.
        let mut s = healthy_stats(SORT_INTERVAL);
        s.rebuilds_accum = TRIGGER_REBUILD_COUNT + 1;
        s.empty_ratio = 0.0;
        s.perf_metric = 1.0;
        assert_eq!(should_sort(&s), Some(SortReason::FixedInterval));
        s.steps_since_sort = MIN_SORT_INTERVAL;
        assert_eq!(should_sort(&s), Some(SortReason::RebuildCount));
        s.rebuilds_accum = 0;
        assert_eq!(should_sort(&s), Some(SortReason::EmptyRatio));
        s.empty_ratio = 0.5;
        assert_eq!(should_sort(&s), Some(SortReason::PerfDegradation));
    }

    #[test]
    fn reset_rebaselines_perf() {
        let mut s = healthy_stats(60);
        s.perf_metric = 42.0;
        s.rebuilds_accum = 7;
        s.reset();
        assert_eq!(s.steps_since_sort, 0);
        assert_eq!(s.rebuilds_accum, 0);
        assert_eq!(s.baseline_perf, 0.0);
    }
}
