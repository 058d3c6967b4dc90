//! Flat file store mapping content hashes to UTF-8 bodies.
//!
//! Layout: one file per entry, `<dir>/<32-hex-key>.entry`. Writes go
//! through a per-process temporary name followed by a rename, so a reader
//! never observes a half-written entry even with concurrent processes
//! warming the same cache (the rename either installs a complete body or
//! loses to an identical one). Every I/O failure — missing directory,
//! permission trouble, corrupt entry — degrades to a cache miss or a
//! dropped insert; the store never panics and never fails a run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::ContentHash;

/// File extension for cache entries (wiping matches only these, so a stray
/// file in the directory is never deleted).
const ENTRY_EXT: &str = "entry";

/// Monotonic counter distinguishing temporary files within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Outcome of a classified entry read ([`CacheStore::load_classified`]).
///
/// The distinction matters operationally: an [`Load::Absent`] key is the
/// normal cold-cache path, while [`Load::Unreadable`] means a file *is*
/// sitting at the entry's path but could not be read as UTF-8 text —
/// evidence of on-disk damage (truncation, permissions, bit rot) that the
/// caller may want to count, report, or clean up rather than silently
/// recompute around forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Load {
    /// The entry exists and its body was read completely.
    Hit(String),
    /// No file exists for this key — an ordinary miss.
    Absent,
    /// A file exists for this key but reading it failed (I/O error or
    /// invalid UTF-8).
    Unreadable,
}

/// A directory of content-addressed entries.
#[derive(Debug, Clone)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// A store rooted at `dir`. The directory is created lazily on first
    /// insert, so constructing a store never touches the filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CacheStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: ContentHash) -> PathBuf {
        self.dir.join(format!("{}.{ENTRY_EXT}", key.to_hex()))
    }

    /// Read an entry's body; `None` on any miss or I/O failure. Callers
    /// that need to tell damage apart from a cold key use
    /// [`CacheStore::load_classified`].
    pub fn load(&self, key: ContentHash) -> Option<String> {
        match self.load_classified(key) {
            Load::Hit(body) => Some(body),
            Load::Absent | Load::Unreadable => None,
        }
    }

    /// Read an entry's body, distinguishing "no such entry" from "an entry
    /// file exists but cannot be read" (see [`Load`]). A missing parent
    /// directory counts as [`Load::Absent`]: a never-written store is cold,
    /// not damaged. So does a directory path running through a file: such
    /// a store can never hold an entry.
    pub fn load_classified(&self, key: ContentHash) -> Load {
        use std::io::ErrorKind;
        match std::fs::read_to_string(self.entry_path(key)) {
            Ok(body) => Load::Hit(body),
            Err(e) if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::NotADirectory) => {
                Load::Absent
            }
            Err(_) => Load::Unreadable,
        }
    }

    /// Delete one entry; `true` if a file was actually removed. Used to
    /// evict entries a caller has diagnosed as corrupt, so the damage is
    /// repaired (by the re-store that follows the recompute) instead of
    /// being rediscovered on every warm pass.
    pub fn remove(&self, key: ContentHash) -> bool {
        std::fs::remove_file(self.entry_path(key)).is_ok()
    }

    /// Install an entry. Returns whether the body is durably in place;
    /// failures are swallowed (a cache that cannot write is just cold).
    pub fn save(&self, key: ContentHash, body: &str) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        if std::fs::write(&tmp, body).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        let ok = std::fs::rename(&tmp, self.entry_path(key)).is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
        }
        ok
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delete every entry (and stale temporaries), returning how many
    /// entries were removed. Unrelated files in the directory survive.
    pub fn wipe(&self) -> usize {
        let mut removed = 0;
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let suffix = format!(".{ENTRY_EXT}");
        for item in read.flatten() {
            let name = item.file_name();
            let name = name.to_string_lossy();
            let is_entry = name.ends_with(&suffix);
            if !is_entry && !name.contains(".tmp.") {
                continue;
            }
            // A stale temporary is deleted too, but only entries count.
            let gone = std::fs::remove_file(item.path()).is_ok();
            removed += usize::from(gone && is_entry);
        }
        removed
    }

    fn entries(&self) -> impl Iterator<Item = PathBuf> {
        let suffix = format!(".{ENTRY_EXT}");
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(move |p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().ends_with(&suffix))
                    .unwrap_or(false)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Hasher;

    fn temp_store(tag: &str) -> CacheStore {
        let dir = std::env::temp_dir().join(format!(
            "hcapp_cache_store_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CacheStore::new(dir)
    }

    fn key(s: &str) -> ContentHash {
        let mut h = Hasher::new();
        h.write_str(s);
        h.finish()
    }

    #[test]
    fn roundtrip_and_miss() {
        let store = temp_store("roundtrip");
        let k = key("job-a");
        assert_eq!(store.load(k), None);
        assert!(store.save(k, "body-a"));
        assert_eq!(store.load(k).as_deref(), Some("body-a"));
        assert_eq!(store.load(key("job-b")), None);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn overwrite_replaces_body() {
        let store = temp_store("overwrite");
        let k = key("job");
        assert!(store.save(k, "v1"));
        assert!(store.save(k, "v2"));
        assert_eq!(store.load(k).as_deref(), Some("v2"));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wipe_clears_entries_only() {
        let store = temp_store("wipe");
        assert_eq!(store.wipe(), 0, "wiping a cold store is a no-op");
        assert!(store.save(key("a"), "1"));
        assert!(store.save(key("b"), "2"));
        // An unrelated file must survive the wipe.
        let bystander = store.dir().join("README");
        std::fs::write(&bystander, "not an entry").expect("writable temp dir");
        assert_eq!(store.wipe(), 2);
        assert!(store.is_empty());
        assert!(bystander.exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wipe_deletes_stale_temporaries_without_counting_them() {
        let store = temp_store("wipe_tmp");
        let k = key("a");
        assert!(store.save(k, "1"));
        // What an interrupted save leaves behind.
        let stale = store
            .dir()
            .join(format!("{}.tmp.{}.7", k.to_hex(), std::process::id()));
        std::fs::write(&stale, "half a bo").expect("writable temp dir");
        assert_eq!(store.wipe(), 1, "only the entry counts");
        assert!(!stale.exists(), "the stale temporary is deleted");
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn classified_load_separates_absent_from_unreadable() {
        let store = temp_store("classified");
        let k = key("job");
        // Cold store (directory does not even exist yet): absent, not
        // damaged.
        assert_eq!(store.load_classified(k), Load::Absent);
        assert!(store.save(k, "body"));
        assert_eq!(store.load_classified(k), Load::Hit("body".into()));
        // A non-UTF-8 body at the entry path is unreadable, not a plain
        // miss.
        std::fs::write(store.dir().join(format!("{}.entry", k.to_hex())), [0xFF, 0xFE, 0x80])
            .expect("writable temp dir");
        assert_eq!(store.load_classified(k), Load::Unreadable);
        assert_eq!(store.load(k), None, "lossy load still degrades to a miss");
        // Eviction clears the damage; a second remove is a no-op.
        assert!(store.remove(k));
        assert!(!store.remove(k));
        assert_eq!(store.load_classified(k), Load::Absent);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unwritable_store_degrades_to_false() {
        // A path that cannot be a directory (its parent is a file).
        let blocker = std::env::temp_dir().join(format!(
            "hcapp_cache_blocker_{}",
            std::process::id()
        ));
        std::fs::write(&blocker, "file").expect("writable temp dir");
        let store = CacheStore::new(blocker.join("sub"));
        assert!(!store.save(key("x"), "y"));
        assert_eq!(store.load(key("x")), None);
        assert_eq!(
            store.load_classified(key("x")),
            Load::Absent,
            "a store that cannot exist is cold, not damaged"
        );
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_file(&blocker);
    }
}
