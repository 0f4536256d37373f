//! # datalinks — the full DataLinks reproduction stack
//!
//! Facade crate re-exporting every layer of this reproduction of *DLFM: A
//! Transactional Resource Manager* (Hsiao & Narang, SIGMOD 2000):
//!
//! * [`minidb`] — the embedded relational engine DLFM uses as its local
//!   "black box" persistent store;
//! * [`filesys`] — the in-memory file server plus the DLFF filter;
//! * [`archive`] — the ADSM-like archive server;
//! * [`dlrpc`] — the agent connection fabric;
//! * [`dlfm`] — the DataLinks File Manager itself (the paper's system);
//! * [`hostdb`] — the host database with the datalink engine and
//!   two-phase-commit coordinator.
//!
//! See `examples/quickstart.rs` for the 60-second tour and `DESIGN.md` for
//! the system inventory.

#![warn(missing_docs)]

pub use archive;
pub use dlfm;
pub use dlrpc;
pub use filesys;
pub use hostdb;
pub use minidb;
pub use obs;

pub mod audit;

pub use audit::{Acked, Audit, Report};

use std::sync::Arc;

/// Everything a single-file-server deployment needs, wired together.
pub struct Deployment {
    /// The file server.
    pub fs: Arc<filesys::FileSystem>,
    /// The archive server.
    pub archive: Arc<archive::ArchiveServer>,
    /// The running DLFM.
    pub dlfm: dlfm::DlfmServer,
    /// The host database, already attached to the DLFM.
    pub host: hostdb::HostDb,
    /// Name the host knows the file server by (for datalink URLs).
    pub server_name: String,
}

impl Deployment {
    /// Stand up a file server + archive + DLFM + host database.
    pub fn new(
        server_name: &str,
        dlfm_config: dlfm::DlfmConfig,
        host_config: hostdb::HostConfig,
    ) -> Deployment {
        Deployment::wired(server_name, dlfm_config, host_config, |host, dlfm| {
            host.attach_dlfm(server_name, dlfm.connector());
        })
    }

    /// Default test-friendly deployment.
    pub fn for_tests(server_name: &str) -> Deployment {
        Deployment::new(server_name, dlfm::DlfmConfig::for_tests(), hostdb::HostConfig::for_tests())
    }

    /// Like [`Deployment::new`], but the host dials the DLFM over a real
    /// socket: the DLFM binds `listen` (which must be `Tcp` or `Unix`) and
    /// the host attaches by URL through the wire transport — every RPC
    /// crosses the frame codec and a kernel socket, even though both ends
    /// live in this process. Tests and benches use this to exercise the
    /// deployment shape of `dlfmd` without a second OS process.
    pub fn new_wire(
        server_name: &str,
        mut dlfm_config: dlfm::DlfmConfig,
        host_config: hostdb::HostConfig,
        listen: dlfm::Transport,
    ) -> Deployment {
        assert!(!matches!(listen, dlfm::Transport::Inproc), "new_wire needs a socket Transport");
        dlfm_config.listen = listen;
        Deployment::wired(server_name, dlfm_config, host_config, |host, dlfm| {
            let url = dlfm.listen_addr().expect("socket Transport always binds a listener");
            host.attach_dlfm_url(server_name, &url.to_string())
                .expect("wire attach cannot fail at bind time");
        })
    }

    /// The stack, with the host attached to the DLFM by `attach`.
    fn wired(
        server_name: &str,
        dlfm_config: dlfm::DlfmConfig,
        host_config: hostdb::HostConfig,
        attach: impl FnOnce(&hostdb::HostDb, &dlfm::DlfmServer),
    ) -> Deployment {
        let fs = Arc::new(filesys::FileSystem::new());
        let archive = Arc::new(archive::ArchiveServer::new());
        let dlfm = dlfm::DlfmServer::start(dlfm_config, fs.clone(), archive.clone());
        let host = hostdb::HostDb::new(host_config);
        attach(&host, &dlfm);
        Deployment { fs, archive, dlfm, host, server_name: server_name.to_string() }
    }

    /// Datalink URL for a path on this deployment's file server.
    pub fn url(&self, path: &str) -> String {
        format!("dlfs://{}{}", self.server_name, path)
    }

    /// The §3.3 oracle over this deployment, checking ownership of the
    /// files under `prefix`.
    pub fn audit<'a>(&'a self, prefix: &'a str) -> Audit<'a> {
        Audit::new(&self.host, vec![(&self.server_name, &self.dlfm)], &self.fs, prefix)
    }

    /// Spawn a telemetry watchdog over the whole deployment: the DLFM and
    /// host metric snapshots as providers (`dlfm:*` / `host:*` series)
    /// and both status pages as incident-bundle sections. The caller owns
    /// the handle; dropping it stops the sampler thread.
    pub fn spawn_watchdog(&self, config: obs::WatchConfig) -> obs::WatchdogHandle {
        let host = self.host.clone();
        let host_status = self.host.clone();
        obs::Watchdog::new(config)
            .provider("dlfm", self.dlfm.metrics_provider())
            .provider("host", move || host.metrics_text())
            .section("dlfm_status", self.dlfm.status_provider())
            .section("host_status", move || host_status.status_text())
            .spawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_wires_the_stack_together() {
        let dep = Deployment::for_tests("fs9");
        assert_eq!(dep.url("/a/b"), "dlfs://fs9/a/b");
        assert!(dep.dlfm.db().is_online());
        assert_eq!(dep.host.servers(), vec!["fs9".to_string()]);
        // The DLFF is installed over the same file system.
        dep.fs.create("/x", "u", b"1").unwrap();
        assert!(dep.dlfm.dlff().raw().exists("/x"));
    }
}
