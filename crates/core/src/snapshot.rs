//! Serializable mid-run simulation state.
//!
//! A [`Snapshot`] captures everything a [`crate::simulation::Simulation`]
//! has *accumulated* since slot 0 — and nothing that is a pure function of
//! its config. The split (see DESIGN.md §1.6):
//!
//! * **Serialized**: per-site cluster state (disks, queues, write log,
//!   cache arena, failure tables), battery state, energy ledger, learned
//!   forecaster state (EWMA table / noise-RNG words), gear history, the
//!   job pool and its pending order, arrival cursor, batch accounting,
//!   the latency histogram, repair tables, and the slot cursor.
//! * **Rebuilt on restore**: the world (workload, traces, layouts — the
//!   snapshot stores their cache *keys*, never the components), the
//!   policy and its matcher network (rebuilt cold; a memo-replayed round
//!   equals a cold solve, so this is byte-exact), the failure dice (pure function
//!   of the seed), planning constants, and acceleration memos (busy-time
//!   memo, disk→object reverse index, histogram bucket memo).
//!
//! Restoring goes through the normal assembly path — build a fresh
//! simulation from the *resume* config, then overlay this state — so a
//! same-config resume is byte-identical to an uninterrupted run, and a
//! variant config (different policy / battery / WAN price) branches the
//! checkpoint into a "what-if" continuation.

use crate::config::ExperimentConfig;
use crate::report::BatchReport;
use gm_energy::battery::BatteryState;
use gm_energy::forecast::ForecasterState;
use gm_energy::ledger::EnergyLedger;
use gm_sim::LogHistogram;
use gm_storage::ClusterSnapshot;
use gm_workload::BatchJob;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// Format version; bumped whenever the snapshot shape changes
/// incompatibly. Restore also accepts versions 1 (pre-tiering), 2
/// (pre-admission) and 3 (flat single-site `cfg`): every newer field
/// defaults to the empty state such a run was necessarily in, and an older
/// `cfg` is upgraded by [`crate::config::upgrade_legacy`].
pub const SNAPSHOT_VERSION: u32 = 4;

/// Serde default for [`Snapshot::next_migration_id`] (v1 snapshots never
/// allocated one).
fn migration_id_base() -> u64 {
    1u64 << 41
}

/// Skip predicate: the id counter is omitted while still at its base, so
/// a run that never migrated writes a v1-shaped snapshot.
fn at_migration_id_base(id: &u64) -> bool {
    *id == migration_id_base()
}

/// Skip predicate for the zero-valued migration counters.
fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

/// Skip predicate for the zero-valued green-byte accumulator.
fn f64_is_zero(v: &f64) -> bool {
    *v == 0.0
}

/// One site's share of a [`Snapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSnapshot {
    /// Full mutable cluster state (disks, queues, write log, cache,
    /// failure tables, lifetime counters).
    pub cluster: ClusterSnapshot,
    /// Battery charge and cumulative loss counters (spec excluded — it is
    /// config-derived and may contain non-finite sentinel values).
    pub battery: BatteryState,
    /// Per-slot energy accounting from slot 0 to the cursor.
    pub ledger: EnergyLedger,
    /// What the forecaster has learned (EWMA table, noise-RNG position).
    pub forecaster: ForecasterState,
    /// Gears powered per simulated slot.
    pub gears_series: Vec<usize>,
    /// Round-robin cursor of the batch-spread executor.
    pub rr_cursor: usize,
    /// Per-disk spin-up counts at the last failure check.
    pub prev_spinups: Vec<u64>,
    /// Total batch bytes executed at this site so far.
    pub executed_batch_bytes: u64,
}

/// The full mid-run state of a simulation, serializable as JSON.
///
/// Produced by [`crate::simulation::Simulation::snapshot`]; consumed by
/// [`crate::simulation::SimulationBuilder::resume_from`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// The config the checkpointed run was executing. A resume may supply
    /// a *variant* config (branching); the world keys below pin the parts
    /// that must not change.
    pub cfg: ExperimentConfig,
    /// Cache keys of the world components the run was built over (see
    /// [`crate::world::world_keys`]). The world itself is never embedded;
    /// restore re-materialises (or cache-hits) it from the resume config
    /// and refuses configs whose keys diverge — those would replay a
    /// different workload/trace/layout under state that never saw it.
    pub world_keys: Vec<String>,
    /// Index of the next slot to simulate.
    pub cursor: usize,
    /// Per-site state; index 0 is the home site.
    pub sites: Vec<SiteSnapshot>,
    /// Every batch job admitted so far (including repair jobs), with
    /// progress.
    pub jobs: Vec<BatchJob>,
    /// Indices into `jobs` of still-pending jobs, in submission order.
    pub active_jobs: Vec<usize>,
    /// Admission cursor into the workload's batch population.
    pub arrivals_cursor: usize,
    /// Batch completion accounting so far.
    pub batch_report: BatchReport,
    /// Interactive latency distribution so far.
    pub hist: LogHistogram,
    /// Repair-job table as sorted `(job id, disk)` pairs.
    pub repair_jobs: Vec<(u64, usize)>,
    /// Next repair-job id to allocate.
    pub next_repair_id: u64,
    /// Disk repairs completed so far.
    pub repairs_completed: u64,
    /// Migration-job table as `(job id, payload)` pairs sorted by id.
    /// All five migration fields default (and are omitted at their
    /// defaults), so v1 snapshots parse and a tiering-off run still writes
    /// a v1-shaped snapshot.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub migration_jobs: Vec<(u64, crate::simulation::MigrationInfo)>,
    /// Next migration-job id to allocate.
    #[serde(default = "migration_id_base", skip_serializing_if = "at_migration_id_base")]
    pub next_migration_id: u64,
    /// Migrations completed so far.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub migrations_completed: u64,
    /// Migration bytes executed so far.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub migrated_bytes: u64,
    /// Green-fraction-weighted migration bytes so far.
    #[serde(default, skip_serializing_if = "f64_is_zero")]
    pub migrated_green_bytes: f64,
    /// Jobs the admission gate is holding, as `(job, slots held)` pairs in
    /// hold order. Like the migration fields, the five admission fields
    /// default (and are omitted at their defaults), so v1/v2 snapshots
    /// parse and an admission-off run writes a v2-shaped snapshot. The
    /// slot-scoped admission *queue* is never captured — it is empty at
    /// every slot boundary.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub admission_held: Vec<(BatchJob, usize)>,
    /// Jobs the gate has accepted so far.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub admission_accepted: u64,
    /// Defer decisions so far (a job held twice counts twice).
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub admission_deferred: u64,
    /// Jobs the gate has turned away so far.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub admission_rejected: u64,
    /// Bytes of turned-away work so far.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub admission_rejected_bytes: u64,
}

impl Snapshot {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialises")
    }

    /// Deserialize from a JSON string.
    pub fn from_json(json: &str) -> Result<Snapshot, String> {
        let snap: Snapshot =
            serde_json::from_str(json).map_err(|e| format!("malformed snapshot: {e}"))?;
        if !(1..=SNAPSHOT_VERSION).contains(&snap.version) {
            return Err(format!(
                "snapshot version {} not supported (this build reads versions 1 through {})",
                snap.version, SNAPSHOT_VERSION
            ));
        }
        Ok(snap)
    }

    /// Write the snapshot to `path` atomically (write a sibling temp file,
    /// then rename), so a crash mid-write never leaves a truncated
    /// checkpoint where a good one stood.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Read a snapshot previously written by [`Snapshot::save`].
    pub fn load(path: &Path) -> Result<Snapshot, String> {
        let mut json = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut json))
            .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
        Snapshot::from_json(&json)
    }
}
