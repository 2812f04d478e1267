//! Scripted crash/restart control for durable coordinator deployments.
//!
//! A [`DurableController`] owns everything needed to (re)build a
//! [`CoordinatorService`] from its durable state: the deterministic
//! [`ClusterConfig`] (long-term keys re-derive from its seed), the
//! [`ServiceConfig`], the data directory, and the [`StorageConfig`]. Crash
//! testing then becomes: drop the running service (the crash — all in-memory
//! state is gone) and call [`DurableController::open`] to recover a
//! replacement from disk, exactly the sequence a supervisor performs when it
//! restarts a dead `alpenhornd`. The scenario engine's crash-restart storm
//! events are this, scripted: `LoopbackTransport::restart_with(|| ctrl.open())`.

use std::path::PathBuf;

use alpenhorn_storage::{RecoveryReport, StorageConfig, StorageError};

use crate::cluster::{Cluster, ClusterConfig};
use crate::service::{CoordinatorService, ServiceConfig};

/// Rebuilds a durable [`CoordinatorService`] from its on-disk state on
/// demand, counting restarts (see the module docs).
pub struct DurableController {
    config: ClusterConfig,
    service: ServiceConfig,
    data_dir: PathBuf,
    storage: StorageConfig,
    restarts: u64,
    last_report: Option<RecoveryReport>,
}

impl DurableController {
    /// Creates a controller for a deployment configured by
    /// `(config, service)` whose durable state lives in `data_dir`. No
    /// service is built yet; call [`DurableController::open`].
    pub fn new(
        config: ClusterConfig,
        service: ServiceConfig,
        data_dir: impl Into<PathBuf>,
        storage: StorageConfig,
    ) -> Self {
        DurableController {
            config,
            service,
            data_dir: data_dir.into(),
            storage,
            restarts: 0,
            last_report: None,
        }
    }

    /// Builds a fresh cluster from the stored config and recovers the
    /// service from the data directory. The first call boots the deployment;
    /// each later call is a restart after a crash. The previous service must
    /// have been dropped first (its WAL handle must be closed before the
    /// directory is reopened).
    pub fn open(&mut self) -> Result<CoordinatorService, StorageError> {
        let (service, report) = CoordinatorService::with_storage(
            Cluster::new(self.config.clone()),
            self.service.clone(),
            &self.data_dir,
            self.storage,
        )?;
        self.restarts += 1;
        self.last_report = Some(report);
        Ok(service)
    }

    /// How many times [`DurableController::open`] has succeeded (1 = initial
    /// boot, each increment after that is a crash-restart).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// What recovery found on disk at the most recent [`open`], if any.
    ///
    /// [`open`]: DurableController::open
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_report.as_ref()
    }

    /// The data directory holding the deployment's durable state.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.data_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_reboots_a_deployment_from_disk() {
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-control-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctrl = DurableController::new(
            ClusterConfig::test(33),
            ServiceConfig::default(),
            &dir,
            StorageConfig {
                checkpoint_every_records: 64,
            },
        );

        let service = ctrl.open().expect("initial boot");
        assert_eq!(ctrl.restarts(), 1);
        assert!(!ctrl.last_recovery().unwrap().recovered, "fresh directory");
        drop(service); // the crash

        let service = ctrl.open().expect("recovery");
        assert_eq!(ctrl.restarts(), 2);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
