//! Crash-consistent content-addressed blob store.
//!
//! Blobs are keyed by the FNV-1a hash of their bytes and stored one file
//! per blob (`<key:016x>.blob`). The write path is tmp+rename: bytes land
//! in a hidden temp file, are fsynced, and only then renamed into place —
//! a crash mid-write leaves a stray temp file, never a half-written blob
//! under a valid name. On Unix the directory is fsynced after the rename,
//! so an acknowledged put survives a crash. The read path re-hashes the file and compares
//! against the key (the filename *is* the checksum); a mismatch means
//! on-disk corruption, and the blob is **quarantined** — renamed to
//! `<key>.quarantined`, not deleted — so the corrupt bytes stay available
//! for forensics while the key stops resolving.

use amrviz_codec::fnv1a_64;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed store failures; the serve layer maps these onto response statuses
/// (`NotFound` → `Status::NotFound`, `Corrupt` → `Status::Corrupt`).
#[derive(Debug)]
pub enum StoreError {
    /// No blob under that key.
    NotFound,
    /// Blob bytes no longer hash to the key; the file was quarantined.
    Corrupt {
        /// Where the corrupt bytes now live.
        quarantined: PathBuf,
    },
    /// Underlying filesystem failure.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "blob not found"),
            StoreError::Corrupt { quarantined } => {
                write!(f, "blob corrupt, quarantined at {}", quarantined.display())
            }
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Monotonic temp-file nonce so concurrent writers never collide.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A directory of content-addressed blobs.
#[derive(Debug)]
pub struct BlobStore {
    dir: PathBuf,
}

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<BlobStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(BlobStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path for `key`.
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.blob"))
    }

    fn quarantine_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.quarantined"))
    }

    /// Stores `bytes`, returning their content key. Idempotent: an existing
    /// blob under the same key is left untouched (same key ⇒ same bytes).
    pub fn put(&self, bytes: &[u8]) -> Result<u64, StoreError> {
        let key = fnv1a_64(bytes);
        let dst = self.path_of(key);
        if dst.exists() {
            return Ok(key);
        }
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{key:016x}-{}-{nonce}", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            // fsync before rename: the rename must never become visible
            // ahead of the data it names.
            f.sync_all()?;
            std::fs::rename(&tmp, &dst)?;
            // The rename lives in the directory: sync it too, or a crash
            // can lose an acknowledged put.
            #[cfg(unix)]
            std::fs::File::open(&self.dir)?.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(e.to_string()));
        }
        Ok(key)
    }

    /// Fetches and *verifies* the blob under `key`. A checksum mismatch
    /// quarantines the file and reports `Corrupt`; the key then reads as
    /// `NotFound` until re-`put`.
    pub fn get(&self, key: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::NotFound),
            Err(e) => return Err(StoreError::Io(e.to_string())),
        };
        if fnv1a_64(&bytes) != key {
            let q = self.quarantine_path(key);
            // Quarantine, never delete: the corrupted bytes are evidence.
            let _ = std::fs::rename(&path, &q);
            amrviz_obs::counter!("serve.store_quarantined", 1);
            return Err(StoreError::Corrupt { quarantined: q });
        }
        Ok(bytes)
    }

    /// All resolvable blob keys, sorted (deterministic listing order).
    pub fn list(&self) -> Result<Vec<u64>, StoreError> {
        let mut keys = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io(e.to_string()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".blob") {
                if let Ok(key) = u64::from_str_radix(hex, 16) {
                    keys.push(key);
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> BlobStore {
        let dir = std::env::temp_dir().join(format!("amrviz_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BlobStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_content_addressed() {
        let store = temp_store("rt");
        let key = store.put(b"hello blobs").unwrap();
        assert_eq!(key, fnv1a_64(b"hello blobs"));
        assert_eq!(store.get(key).unwrap(), b"hello blobs");
        // Idempotent re-put.
        assert_eq!(store.put(b"hello blobs").unwrap(), key);
        assert_eq!(store.list().unwrap(), vec![key]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_key_is_not_found() {
        let store = temp_store("nf");
        assert!(matches!(store.get(0xDEAD), Err(StoreError::NotFound)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_blob_is_quarantined_not_deleted() {
        let store = temp_store("q");
        let key = store.put(b"precious bytes").unwrap();
        // Corrupt the file in place behind the store's back.
        let path = store.path_of(key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        match store.get(key) {
            Err(StoreError::Corrupt { quarantined }) => {
                assert!(quarantined.exists(), "quarantined file must survive");
                assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The key no longer resolves, and the listing drops it.
        assert!(matches!(store.get(key), Err(StoreError::NotFound)));
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
