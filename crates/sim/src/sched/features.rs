//! The `can_migrate_task` feature vector.
//!
//! Chen et al. (APSys '20), which the paper's case study #2 replicates,
//! feed 15 features describing the task and the source/destination
//! CPUs into an MLP that mimics CFS's migration decision. We define the
//! same kind of feature vector. All features are expressed in bounded
//! units (milliseconds, percents, scaled weights) so they fit the
//! Q16.16 range of the kernel-side datapath without saturation.

/// Number of features.
pub const N_FEATURES: usize = 15;

/// Feature names, index-aligned with [`MigrationFeatures::to_array`].
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "src_nr_running",
    "dst_nr_running",
    "src_load",
    "dst_load",
    "imbalance_pct",
    "task_weight",
    "task_util_pct",
    "time_since_ran_ms",
    "cache_footprint_mb",
    "nice",
    "age_ms",
    "remaining_ms",
    "vruntime_delta_ms",
    "is_io_bound",
    "burst_ms",
];

/// The feature vector for one candidate migration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationFeatures {
    /// Runnable tasks on the source CPU.
    pub src_nr_running: i64,
    /// Runnable tasks on the destination CPU.
    pub dst_nr_running: i64,
    /// Source CPU load (sum of weights / 64).
    pub src_load: i64,
    /// Destination CPU load (sum of weights / 64).
    pub dst_load: i64,
    /// Load imbalance in percent of the source load.
    pub imbalance_pct: i64,
    /// Task weight / 64.
    pub task_weight: i64,
    /// Task utilization in percent.
    pub task_util_pct: i64,
    /// Milliseconds since the task last ran (cache-hotness proxy),
    /// capped at 10 000.
    pub time_since_ran_ms: i64,
    /// Task cache footprint in MiB.
    pub cache_footprint_mb: i64,
    /// Nice value.
    pub nice: i64,
    /// Time since the task arrived, in ms, capped at 30 000 (a stable,
    /// policy-independent progress proxy).
    pub age_ms: i64,
    /// Remaining work in ms, capped at 30 000.
    pub remaining_ms: i64,
    /// Task vruntime minus destination min vruntime, in ms, clamped to
    /// +/- 30 000.
    pub vruntime_delta_ms: i64,
    /// 1 if the task sleeps for I/O, else 0.
    pub is_io_bound: i64,
    /// The task's characteristic CPU burst length in milliseconds
    /// (static per task), capped at 30.
    pub burst_ms: i64,
}

impl MigrationFeatures {
    /// Flattens into the canonical 15-element vector, on the stack.
    pub fn to_array(&self) -> [i64; N_FEATURES] {
        [
            self.src_nr_running,
            self.dst_nr_running,
            self.src_load,
            self.dst_load,
            self.imbalance_pct,
            self.task_weight,
            self.task_util_pct,
            self.time_since_ran_ms,
            self.cache_footprint_mb,
            self.nice,
            self.age_ms,
            self.remaining_ms,
            self.vruntime_delta_ms,
            self.is_io_bound,
            self.burst_ms,
        ]
    }

    /// [`MigrationFeatures::to_array`] as a `Vec`.
    pub fn to_vec(&self) -> Vec<i64> {
        self.to_array().to_vec()
    }

    /// Projects onto a subset of feature indices (lean monitoring).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn project(&self, indices: &[usize]) -> Vec<i64> {
        let all = self.to_array();
        indices.iter().map(|&i| all[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_is_index_aligned_with_names() {
        let f = MigrationFeatures {
            src_nr_running: 1,
            dst_nr_running: 2,
            src_load: 3,
            dst_load: 4,
            imbalance_pct: 5,
            task_weight: 6,
            task_util_pct: 7,
            time_since_ran_ms: 8,
            cache_footprint_mb: 9,
            nice: 10,
            age_ms: 11,
            remaining_ms: 12,
            vruntime_delta_ms: 13,
            is_io_bound: 14,
            burst_ms: 15,
        };
        let v = f.to_vec();
        assert_eq!(v.len(), N_FEATURES);
        assert_eq!(FEATURE_NAMES.len(), N_FEATURES);
        assert_eq!(v, (1..=15).collect::<Vec<i64>>());
    }

    #[test]
    fn project_selects_columns() {
        let f = MigrationFeatures {
            imbalance_pct: 42,
            time_since_ran_ms: 7,
            ..MigrationFeatures::default()
        };
        assert_eq!(f.project(&[4, 7]), vec![42, 7]);
    }

    #[test]
    #[should_panic]
    fn project_out_of_range_panics() {
        let _ = MigrationFeatures::default().project(&[99]);
    }
}
