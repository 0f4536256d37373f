//! The Chown daemon (paper §3.5).
//!
//! In the paper a separate privileged process whose effective user id is
//! root is the only component that manipulates file ownership and
//! permission bits, and child agents must authenticate to it ("it is
//! important to safeguard unauthorized requests"). Here that privilege
//! boundary is the shared secret and this module's exclusive use of
//! `fs.chown`/`fs.chmod`: every request carries the secret and is refused
//! without it, and the operations run one at a time under one mutex, as a
//! single daemon process serves them. What the component does not model is
//! the inter-process hand-off: a request runs on the calling agent's
//! thread, so a privileged call costs its `stat` or `chown` + `chmod` and
//! nothing else — the same way the Upcall daemon runs as a DLFF handler.

use std::sync::Arc;

use filesys::{FileMeta, FileSystem, Mode};
use parking_lot::Mutex;

/// Mode-bit encoding stored in `dfm_file.orig_mode`.
pub fn encode_mode(m: Mode) -> i64 {
    (m.owner_write as i64) | ((m.world_read as i64) << 1) | ((m.world_write as i64) << 2)
}

/// Decode mode bits from the metadata encoding.
pub fn decode_mode(bits: i64) -> Mode {
    Mode { owner_write: bits & 1 != 0, world_read: bits & 2 != 0, world_write: bits & 4 != 0 }
}

/// Operations the daemon performs.
#[derive(Debug, Clone)]
pub enum ChownOp {
    /// Stat a file (fsid, inode, owner, mode, mtime — what the child agent
    /// records at link time).
    GetInfo {
        /// File path.
        path: String,
    },
    /// Take the file over for the database: under full control, transfer
    /// ownership to the DLFM admin user and mark read-only. Idempotent.
    Takeover {
        /// File path.
        path: String,
        /// Full (vs partial) access control.
        full: bool,
    },
    /// Release the file back to its original owner and mode. Idempotent.
    Release {
        /// File path.
        path: String,
        /// Owner to restore.
        owner: String,
        /// Encoded mode bits to restore.
        mode_bits: i64,
    },
}

/// Authenticated handle used by child agents and daemons.
#[derive(Clone)]
pub struct ChownClient {
    daemon: Arc<ChownDaemon>,
    auth: u64,
}

impl ChownClient {
    /// Execute an operation: check the secret, then serve it on this
    /// thread, one operation at a time across all clients.
    pub fn call(&self, op: ChownOp) -> Result<Option<FileMeta>, String> {
        let d = &self.daemon;
        if self.auth != d.secret {
            return Err("authentication failure: request rejected".to_string());
        }
        let _serial = d.serial.lock();
        serve(&d.fs, &d.admin, &op)
    }

    /// Stat helper.
    pub fn get_info(&self, path: &str) -> Result<FileMeta, String> {
        self.call(ChownOp::GetInfo { path: path.into() })?
            .ok_or_else(|| "no metadata returned".into())
    }

    /// Construct a client with a *wrong* secret (for the authentication
    /// test — mirrors the paper's concern about unauthorized requests).
    pub fn with_bad_auth(&self) -> ChownClient {
        ChownClient { daemon: self.daemon.clone(), auth: self.auth.wrapping_add(1) }
    }
}

/// The privileged component: the file system, the admin user full-control
/// takeover transfers files to, and the secret clients must present.
pub struct ChownDaemon {
    fs: Arc<FileSystem>,
    admin: String,
    secret: u64,
    /// Held while an operation runs: one at a time.
    serial: Mutex<()>,
}

impl ChownDaemon {
    /// Set the component up over a file system and return the
    /// authenticated client agents and daemons share.
    pub fn start(fs: Arc<FileSystem>, dlfm_admin: &str) -> ChownClient {
        let secret: u64 = rand::random();
        let daemon =
            ChownDaemon { fs, admin: dlfm_admin.to_string(), secret, serial: Mutex::new(()) };
        ChownClient { daemon: Arc::new(daemon), auth: secret }
    }
}

fn serve(fs: &FileSystem, admin: &str, op: &ChownOp) -> Result<Option<FileMeta>, String> {
    match op {
        ChownOp::GetInfo { path } => {
            let meta = fs.stat(path).map_err(|e| e.to_string())?;
            Ok(Some(meta))
        }
        ChownOp::Takeover { path, full } => {
            if *full {
                fs.chown(path, admin, "dlfm").map_err(|e| e.to_string())?;
                fs.chmod(path, Mode::read_only()).map_err(|e| e.to_string())?;
            }
            // Partial control: no FS changes; the DLFF upcall enforces the
            // constraints (paper §3.5).
            Ok(None)
        }
        ChownOp::Release { path, owner, mode_bits } => {
            // The file may have been removed meanwhile (e.g. restore took a
            // different path); releasing a missing file is not an error.
            if fs.exists(path) {
                fs.chown(path, owner, "users").map_err(|e| e.to_string())?;
                fs.chmod(path, decode_mode(*mode_bits)).map_err(|e| e.to_string())?;
            }
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_codec_roundtrip() {
        for m in [
            Mode::user_default(),
            Mode::read_only(),
            Mode { owner_write: true, world_read: false, world_write: false },
        ] {
            assert_eq!(decode_mode(encode_mode(m)), m);
        }
    }

    #[test]
    fn takeover_and_release_roundtrip() {
        let fs = Arc::new(FileSystem::new());
        fs.create("/f", "alice", b"x").unwrap();
        let original = fs.stat("/f").unwrap();
        let client = ChownDaemon::start(fs.clone(), "dlfm_admin");

        client.call(ChownOp::Takeover { path: "/f".into(), full: true }).unwrap();
        let m = fs.stat("/f").unwrap();
        assert_eq!(m.owner, "dlfm_admin");
        assert!(!m.mode.owner_write);

        client
            .call(ChownOp::Release {
                path: "/f".into(),
                owner: original.owner.clone(),
                mode_bits: encode_mode(original.mode),
            })
            .unwrap();
        let m = fs.stat("/f").unwrap();
        assert_eq!(m.owner, "alice");
        assert!(m.mode.owner_write);
    }

    #[test]
    fn partial_takeover_leaves_fs_untouched() {
        let fs = Arc::new(FileSystem::new());
        fs.create("/f", "alice", b"x").unwrap();
        let client = ChownDaemon::start(fs.clone(), "dlfm_admin");
        client.call(ChownOp::Takeover { path: "/f".into(), full: false }).unwrap();
        let m = fs.stat("/f").unwrap();
        assert_eq!(m.owner, "alice");
        assert!(m.mode.owner_write);
    }

    #[test]
    fn unauthenticated_requests_rejected() {
        let fs = Arc::new(FileSystem::new());
        fs.create("/f", "alice", b"x").unwrap();
        let before = fs.stat("/f").unwrap();
        let client = ChownDaemon::start(fs.clone(), "dlfm_admin");
        let bad = client.with_bad_auth();
        for op in [
            ChownOp::Takeover { path: "/f".into(), full: true },
            ChownOp::Release { path: "/f".into(), owner: "mallory".into(), mode_bits: 7 },
            ChownOp::GetInfo { path: "/f".into() },
        ] {
            let err = bad.call(op).unwrap_err();
            assert!(err.contains("authentication"), "{err}");
        }
        // File untouched: owner, mode and modification time.
        assert_eq!(fs.stat("/f").unwrap(), before);
        // The real secret still works.
        client.call(ChownOp::Takeover { path: "/f".into(), full: true }).unwrap();
        assert_eq!(fs.stat("/f").unwrap().owner, "dlfm_admin");
    }

    /// Takeover is a chown then a chmod, Release the same back: run
    /// interleaved, they would leave or show a mixed pair such as
    /// (alice, read-only). One at a time, every state anybody can observe
    /// through the component is one of the two whole ones.
    #[test]
    fn concurrent_takeover_and_release_run_one_at_a_time() {
        let fs = Arc::new(FileSystem::new());
        fs.create("/f", "alice", b"x").unwrap();
        let client = ChownDaemon::start(fs.clone(), "dlfm_admin");
        let released = ("alice".to_string(), Mode::user_default());
        let taken = ("dlfm_admin".to_string(), Mode::read_only());
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let client = client.clone();
                let (released, taken) = (released.clone(), taken.clone());
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let op = if t == 0 {
                            ChownOp::Takeover { path: "/f".into(), full: true }
                        } else {
                            ChownOp::Release {
                                path: "/f".into(),
                                owner: "alice".into(),
                                mode_bits: encode_mode(Mode::user_default()),
                            }
                        };
                        client.call(op).unwrap();
                        let m = client.get_info("/f").unwrap();
                        let seen = (m.owner, m.mode);
                        assert!(seen == released || seen == taken, "mixed state {seen:?}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let m = fs.stat("/f").unwrap();
        let last = (m.owner, m.mode);
        assert!(last == released || last == taken, "mixed final state {last:?}");
    }

    #[test]
    fn get_info_returns_metadata() {
        let fs = Arc::new(FileSystem::new());
        fs.create("/f", "alice", b"hello").unwrap();
        let meta = ChownDaemon::start(fs.clone(), "dlfm_admin").get_info("/f").unwrap();
        assert_eq!(meta.owner, "alice");
        assert_eq!(meta.size, 5);
        assert!(meta.inode > 0);
    }

    #[test]
    fn release_of_missing_file_is_noop() {
        let fs = Arc::new(FileSystem::new());
        ChownDaemon::start(fs, "dlfm_admin")
            .call(ChownOp::Release { path: "/gone".into(), owner: "a".into(), mode_bits: 7 })
            .unwrap();
    }
}
