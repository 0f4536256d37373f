//! DLFF — the DataLinks File System Filter.
//!
//! Sits between applications and the raw [`FileSystem`], enforcing the
//! constraints DLFM applies to linked files (paper §2, §3.5):
//!
//! * rename/delete/move of a linked file is rejected (referential
//!   integrity);
//! * under **full access control** the file is owned by the DLFM
//!   administrative user and read access requires a host-issued token;
//! * under **partial access control** the filter performs an **Upcall** to
//!   DLFM to ask whether the file is linked before allowing a destructive
//!   operation. (Full-control files need no upcall — DLFM ownership already
//!   marks them.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::fs::{FileMeta, FileSystem, FsError, FsResult};

/// Link state reported by DLFM through the Upcall interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// File is not under database control.
    NotLinked,
    /// Linked with partial access control (reads uncontrolled).
    LinkedPartial,
    /// Linked with full access control (reads require a token).
    LinkedFull,
}

/// The Upcall interface the DLFM Upcall daemon implements (paper §3.5).
pub trait UpcallHandler: Send + Sync {
    /// Is the file currently linked, and how?
    fn link_state(&self, path: &str) -> LinkState;
}

/// Outcome of a filtered operation attempt (diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessDecision {
    /// Operation allowed through to the file system.
    Allowed,
    /// Rejected because the file is linked.
    DeniedLinked,
    /// Rejected because the access token was missing or invalid.
    DeniedToken,
}

/// The filter. Owns a handle to the raw file system; applications are
/// expected to go through this instead of the raw [`FileSystem`].
pub struct Dlff {
    fs: Arc<FileSystem>,
    upcall: RwLock<Option<Arc<dyn UpcallHandler>>>,
    /// The valid read token of each path that has one: checking,
    /// registering and revoking each touch one entry, however many files
    /// hold tokens.
    tokens: RwLock<HashMap<String, String>>,
    /// Name of the DLFM administrative user; files owned by it are
    /// recognised as fully controlled without an upcall.
    dlfm_admin: String,
    upcall_count: AtomicU64,
}

impl Dlff {
    /// Wrap a file system. `dlfm_admin` is the DLFM administrative user
    /// that full-control takeover transfers ownership to.
    pub fn new(fs: Arc<FileSystem>, dlfm_admin: &str) -> Dlff {
        Dlff {
            fs,
            upcall: RwLock::new(None),
            tokens: RwLock::new(HashMap::new()),
            dlfm_admin: dlfm_admin.to_string(),
            upcall_count: AtomicU64::new(0),
        }
    }

    /// The raw file system underneath (DLFM daemons use it directly).
    pub fn raw(&self) -> &Arc<FileSystem> {
        &self.fs
    }

    /// Install the Upcall handler (done when the DLFM starts).
    pub fn set_upcall(&self, handler: Arc<dyn UpcallHandler>) {
        *self.upcall.write() = Some(handler);
    }

    /// Number of upcalls performed so far.
    pub fn upcalls(&self) -> u64 {
        self.upcall_count.load(Ordering::Relaxed)
    }

    /// Register a host-issued access token for a fully-controlled file. A
    /// path has one token: registering another replaces it.
    pub fn register_token(&self, path: &str, token: &str) {
        self.tokens.write().insert(path.to_string(), token.to_string());
    }

    /// The token registered for `path`, registering `mint()` first when
    /// there is none. Atomic, so concurrent issuers of one link agree on
    /// one token and the registry holds one entry per link, not per issue.
    pub fn token_or_register(&self, path: &str, mint: impl FnOnce() -> String) -> String {
        if let Some(token) = self.tokens.read().get(path) {
            return token.clone();
        }
        self.tokens.write().entry(path.to_string()).or_insert_with(mint).clone()
    }

    /// Invalidate the token of `path` (e.g. on unlink).
    pub fn revoke_tokens(&self, path: &str) {
        self.tokens.write().remove(path);
    }

    /// Number of registered tokens (gauge: grows with links, not reads).
    pub fn token_count(&self) -> usize {
        self.tokens.read().len()
    }

    fn state_of(&self, path: &str, meta: Option<&FileMeta>) -> LinkState {
        // Full control is recognisable from ownership alone; otherwise ask
        // DLFM (the Upcall, needed only for partial control — paper §3.5).
        if let Some(m) = meta {
            if m.owner == self.dlfm_admin {
                return LinkState::LinkedFull;
            }
        }
        let handler = self.upcall.read().clone();
        match handler {
            Some(h) => {
                self.upcall_count.fetch_add(1, Ordering::Relaxed);
                h.link_state(path)
            }
            None => LinkState::NotLinked,
        }
    }

    /// Create a new file (always allowed; new files are never linked).
    pub fn create(&self, path: &str, owner: &str, content: &[u8]) -> FsResult<FileMeta> {
        self.fs.create(path, owner, content)
    }

    /// Read a file. Fully-controlled files require a valid token.
    pub fn read(&self, path: &str, user: &str, token: Option<&str>) -> FsResult<Vec<u8>> {
        let meta = self.fs.stat(path)?;
        if meta.owner == self.dlfm_admin && user != self.dlfm_admin {
            let ok = token.is_some_and(|t| self.tokens.read().get(path).is_some_and(|x| x == t));
            if !ok {
                return Err(FsError::PermissionDenied {
                    path: path.to_string(),
                    op: "read (missing or invalid access token)".into(),
                });
            }
            // Token-authorised reads bypass the user permission check: the
            // filter reads on the application's behalf.
            return self.fs.read(path, &self.dlfm_admin);
        }
        self.fs.read(path, user)
    }

    /// Write a file. Linked files are read-only under full control (the
    /// file-system mode enforces it); partial control leaves content alone.
    pub fn write(&self, path: &str, user: &str, content: &[u8]) -> FsResult<()> {
        self.fs.write(path, user, content)
    }

    /// Delete, rejected for linked files.
    pub fn delete(&self, path: &str, _user: &str) -> FsResult<()> {
        match self.check_destructive(path, "delete")? {
            AccessDecision::Allowed => self.fs.delete(path),
            _ => Err(FsError::FilterRejected { path: path.to_string(), op: "delete".into() }),
        }
    }

    /// Rename/move, rejected for linked files.
    pub fn rename(&self, from: &str, to: &str, _user: &str) -> FsResult<()> {
        match self.check_destructive(from, "rename")? {
            AccessDecision::Allowed => self.fs.rename(from, to),
            _ => Err(FsError::FilterRejected { path: from.to_string(), op: "rename".into() }),
        }
    }

    /// Would a destructive op on `path` be allowed right now?
    pub fn check_destructive(&self, path: &str, _op: &str) -> FsResult<AccessDecision> {
        let meta = self.fs.stat(path)?;
        match self.state_of(path, Some(&meta)) {
            LinkState::NotLinked => Ok(AccessDecision::Allowed),
            LinkState::LinkedPartial | LinkState::LinkedFull => Ok(AccessDecision::DeniedLinked),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedUpcall(LinkState);
    impl UpcallHandler for FixedUpcall {
        fn link_state(&self, _path: &str) -> LinkState {
            self.0
        }
    }

    fn setup(state: LinkState) -> (Arc<FileSystem>, Dlff) {
        let fs = Arc::new(FileSystem::new());
        let dlff = Dlff::new(fs.clone(), "dlfm_admin");
        dlff.set_upcall(Arc::new(FixedUpcall(state)));
        (fs, dlff)
    }

    #[test]
    fn unlinked_files_are_unrestricted() {
        let (_fs, dlff) = setup(LinkState::NotLinked);
        dlff.create("/f", "alice", b"x").unwrap();
        dlff.rename("/f", "/g", "alice").unwrap();
        dlff.delete("/g", "alice").unwrap();
    }

    #[test]
    fn linked_files_cannot_be_deleted_or_renamed() {
        let (_fs, dlff) = setup(LinkState::LinkedPartial);
        dlff.create("/f", "alice", b"x").unwrap();
        assert!(matches!(dlff.delete("/f", "alice"), Err(FsError::FilterRejected { .. })));
        assert!(matches!(dlff.rename("/f", "/g", "alice"), Err(FsError::FilterRejected { .. })));
        // The file is still there.
        assert!(dlff.raw().exists("/f"));
    }

    #[test]
    fn partial_control_uses_upcall_full_control_does_not() {
        let (fs, dlff) = setup(LinkState::LinkedPartial);
        dlff.create("/p", "alice", b"x").unwrap();
        let _ = dlff.delete("/p", "alice");
        assert_eq!(dlff.upcalls(), 1);
        // Full control: owner is dlfm_admin, no upcall needed.
        fs.create("/q", "dlfm_admin", b"y").unwrap();
        let _ = dlff.delete("/q", "alice");
        assert_eq!(dlff.upcalls(), 1, "full-control check must not upcall");
    }

    #[test]
    fn full_control_read_requires_token() {
        let (fs, dlff) = setup(LinkState::NotLinked);
        fs.create("/v", "dlfm_admin", b"secret").unwrap();
        assert!(dlff.read("/v", "alice", None).is_err());
        assert!(dlff.read("/v", "alice", Some("wrong")).is_err());
        dlff.register_token("/v", "tok123");
        assert_eq!(dlff.read("/v", "alice", Some("tok123")).unwrap(), b"secret");
        dlff.revoke_tokens("/v");
        assert!(dlff.read("/v", "alice", Some("tok123")).is_err());
    }

    #[test]
    fn revoking_one_path_leaves_every_other_token_valid() {
        let (fs, dlff) = setup(LinkState::NotLinked);
        let others: Vec<String> = (0..100_000).map(|i| format!("/d{}/f{i}", i % 100)).collect();
        for path in &others {
            dlff.register_token(path, "tok");
        }
        fs.create("/a", "dlfm_admin", b"a").unwrap();
        fs.create(&others[7], "dlfm_admin", b"other").unwrap();
        dlff.register_token("/a", "tok-a");
        assert_eq!(dlff.token_count(), 100_001);
        dlff.revoke_tokens("/a");
        assert_eq!(dlff.token_count(), 100_000, "only /a's token went");
        assert!(dlff.read("/a", "alice", Some("tok-a")).is_err());
        assert_eq!(dlff.read(&others[7], "alice", Some("tok")).unwrap(), b"other");
        // Revoking a path that holds no token changes nothing.
        dlff.revoke_tokens("/a");
        assert_eq!(dlff.token_count(), 100_000);
    }

    #[test]
    fn a_token_opens_only_the_path_it_was_registered_for() {
        let (fs, dlff) = setup(LinkState::NotLinked);
        fs.create("/a", "dlfm_admin", b"a").unwrap();
        fs.create("/b", "dlfm_admin", b"b").unwrap();
        dlff.register_token("/a", "tok-a");
        assert!(dlff.read("/b", "alice", Some("tok-a")).is_err(), "A's token refused for B");
        assert!(dlff.read("/a", "alice", Some("tok-")).is_err(), "prefix of a token refused");
        assert!(dlff.read("/a", "alice", Some("tok-a\0")).is_err(), "garbled token refused");
        assert!(dlff.read("/a", "alice", Some("")).is_err(), "empty token refused");
        assert_eq!(dlff.read("/a", "alice", Some("tok-a")).unwrap(), b"a");
    }

    #[test]
    fn token_or_register_mints_once_per_path() {
        let (_fs, dlff) = setup(LinkState::NotLinked);
        let first = dlff.token_or_register("/a", || "t1".into());
        let again = dlff.token_or_register("/a", || panic!("a token is already registered"));
        assert_eq!((first.as_str(), again.as_str()), ("t1", "t1"));
        assert_eq!(dlff.token_count(), 1);
        // A path has one token: registering another replaces it.
        dlff.register_token("/a", "t1b");
        assert_eq!(dlff.token_count(), 1);
        assert_eq!(dlff.token_or_register("/a", || panic!("still registered")), "t1b");
        dlff.revoke_tokens("/a");
        assert_eq!(dlff.token_or_register("/a", || "t2".into()), "t2", "revoked: minted afresh");
    }

    #[test]
    fn admin_reads_without_token() {
        let (fs, dlff) = setup(LinkState::NotLinked);
        fs.create("/v", "dlfm_admin", b"secret").unwrap();
        assert_eq!(dlff.read("/v", "dlfm_admin", None).unwrap(), b"secret");
    }

    #[test]
    fn no_upcall_handler_means_not_linked() {
        let fs = Arc::new(FileSystem::new());
        let dlff = Dlff::new(fs, "dlfm_admin");
        dlff.create("/f", "alice", b"x").unwrap();
        dlff.delete("/f", "alice").unwrap();
    }
}
