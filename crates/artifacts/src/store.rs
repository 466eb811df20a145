//! The key-addressed entry store.
//!
//! Layout, one file per entry, sharded like git's loose objects:
//!
//! ```text
//! <root>/objects/<aa>/<bbbbbbbb...>    aa = first 2 hex digits of the key
//! ```
//!
//! An entry is filed under a caller-chosen key [`Digest`] (for a profile,
//! the digest of the run that produced it). Its file is text: one header
//! line, `# <schema> <version> <body digest>`, naming what it holds and the
//! [`Digest`] of the body, then the body (for a profile, the profile's text
//! lines). Writes go to a temp file in the same directory and then
//! [`std::fs::rename`] over the entry, which is atomic on POSIX filesystems
//! — a killed process can leave stray `tmp-*` files (cleaned by `gc`) but
//! never a half-written entry under a valid name — and a write always
//! replaces what was there, damaged or not.
//!
//! Reads re-digest the body and check the header line; damage surfaces as
//! the typed [`StoreError::Corrupt`], never a panic.

use crate::digest::Digest;
use crate::error::StoreError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Disambiguates temp files when several threads (or processes on a shared
/// filesystem) write into one store concurrently.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A key-addressed store of text entries on disk.
///
/// Cheap to clone conceptually (it is just a root path); share one behind an
/// `Arc` when many sweep workers write through it.
///
/// # Examples
///
/// ```no_run
/// use sdbp_artifacts::{Digest, Store};
///
/// # fn main() -> Result<(), sdbp_artifacts::StoreError> {
/// let store = Store::open("run-store")?;
/// let key = Digest::of(b"run coordinates");
/// store.put(key, "example-note", 1, "payload\n")?;
/// assert_eq!(store.get(key, "example-note", 1)?.as_deref(), Some("payload\n"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// One entry in the store, as listed by [`Store::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The key the entry is filed under (its name).
    pub key: Digest,
    /// Size in bytes.
    pub size: u64,
    /// Full path of the entry file.
    pub path: PathBuf,
}

impl StoreEntry {
    /// The schema name and version in the entry's header line, if its body
    /// still matches the header's digest; [`StoreError::Corrupt`] otherwise
    /// (how `artifact ls` flags damage without knowing artifact types).
    pub fn schema(&self) -> Result<(String, u32), StoreError> {
        let path = &self.path;
        let bytes = fs::read(path).map_err(|e| StoreError::io(path.display().to_string(), e))?;
        let (schema, version, _) = parse_entry(&bytes).map_err(|reason| corrupt(path, reason))?;
        Ok((schema.to_string(), version))
    }
}

/// Splits an entry into the schema and version of its header line and the
/// body after it, checking the body against the header's digest.
fn parse_entry(bytes: &[u8]) -> Result<(&str, u32, &str), String> {
    let missing = || "missing '# <schema> <version> <digest>' header line".to_string();
    let text = std::str::from_utf8(bytes).map_err(|_| missing())?;
    let (header, body) = text.split_once('\n').ok_or_else(missing)?;
    let fields: Vec<&str> = header
        .strip_prefix("# ")
        .ok_or_else(missing)?
        .split(' ')
        .collect();
    let [schema, version, digest] = fields[..] else {
        return Err(missing());
    };
    let version = version.parse().map_err(|_| missing())?;
    let digest: Digest = digest.parse().map_err(|_| missing())?;
    let actual = Digest::of(body.as_bytes());
    if actual != digest {
        return Err(format!("body hashes to {actual}, header says {digest}"));
    }
    Ok((schema, version, body))
}

fn corrupt(path: &Path, reason: String) -> StoreError {
    StoreError::Corrupt {
        path: path.display().to_string(),
        reason,
    }
}

/// Atomically writes `bytes` at `path` via a same-directory temp file,
/// creating the shard directory if needed.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().expect("store paths have a shard directory");
    fs::create_dir_all(dir).map_err(|e| StoreError::io(dir.display().to_string(), e))?;
    let tmp = dir.join(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write(&tmp) {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::io(tmp.display().to_string(), e));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::io(path.display().to_string(), e));
    }
    Ok(())
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        let dir = root.join("objects");
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(dir.display().to_string(), e))?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path the entry filed under `key` lives at.
    fn path(&self, key: Digest) -> PathBuf {
        let hex = key.to_string();
        self.root.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    /// Files `body` under `key` behind the header line
    /// `# <schema> <version> <body digest>`, replacing any entry already
    /// there.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put(
        &self,
        key: Digest,
        schema: &str,
        version: u32,
        body: &str,
    ) -> Result<(), StoreError> {
        let digest = Digest::of(body.as_bytes());
        write_atomic(
            &self.path(key),
            format!("# {schema} {version} {digest}\n{body}").as_bytes(),
        )
    }

    /// Reads the body filed under `key` as `schema` at `version`;
    /// `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when the body no longer hashes to the header's digest or the header
    /// line is missing or names another schema or version.
    pub fn get(
        &self,
        key: Digest,
        schema: &str,
        version: u32,
    ) -> Result<Option<String>, StoreError> {
        let path = self.path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(path.display().to_string(), e)),
        };
        let (found, found_version, body) =
            parse_entry(&bytes).map_err(|reason| corrupt(&path, reason))?;
        if (found, found_version) != (schema, version) {
            return Err(corrupt(
                &path,
                format!("entry holds {found} v{found_version}, not {schema} v{version}"),
            ));
        }
        Ok(Some(body.to_string()))
    }

    /// Deletes the entry filed under `key`; `Ok(false)` when it was not
    /// there.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn remove(&self, key: Digest) -> Result<bool, StoreError> {
        let path = self.path(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io(path.display().to_string(), e)),
        }
    }

    /// Lists every entry, sorted by key. Stray temp files and foreign names
    /// are skipped, not errors.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory cannot be read.
    pub fn list(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let objects = self.root.join("objects");
        let mut entries = Vec::new();
        let read_dir = |dir: &Path| -> Result<Vec<fs::DirEntry>, StoreError> {
            fs::read_dir(dir)
                .map_err(|e| StoreError::io(dir.display().to_string(), e))?
                .collect::<Result<_, _>>()
                .map_err(|e| StoreError::io(dir.display().to_string(), e))
        };
        for shard in read_dir(&objects)? {
            if !shard.path().is_dir() {
                continue;
            }
            let prefix = shard.file_name();
            let Some(prefix) = prefix.to_str() else {
                continue;
            };
            for file in read_dir(&shard.path())? {
                let Some(rest) = file.file_name().to_str().map(String::from) else {
                    continue;
                };
                let Ok(key) = format!("{prefix}{rest}").parse::<Digest>() else {
                    continue; // temp files, editor droppings
                };
                let meta = file
                    .metadata()
                    .map_err(|e| StoreError::io(file.path().display().to_string(), e))?;
                entries.push(StoreEntry {
                    key,
                    size: meta.len(),
                    path: file.path(),
                });
            }
        }
        entries.sort_by_key(|e| e.key);
        Ok(entries)
    }

    /// Deletes entries whose body no longer matches their header's digest
    /// or whose header line is missing, plus stray temp files. Returns
    /// `(removed, kept)` counts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the sweep itself cannot read or delete.
    pub fn gc(&self) -> Result<(usize, usize), StoreError> {
        let mut removed = 0;
        let mut kept = 0;
        for entry in self.list()? {
            match entry.schema() {
                Ok(_) => kept += 1,
                Err(StoreError::Corrupt { .. }) => {
                    self.remove(entry.key)?;
                    removed += 1;
                }
                Err(e) => return Err(e),
            }
        }
        // Stray temp files from killed writers.
        let Ok(shards) = fs::read_dir(self.root.join("objects")) else {
            return Ok((removed, kept));
        };
        for shard in shards.flatten() {
            if !shard.path().is_dir() {
                continue;
            }
            if let Ok(files) = fs::read_dir(shard.path()) {
                for file in files.flatten() {
                    let name = file.file_name();
                    if name.to_str().is_some_and(|n| n.starts_with("tmp-")) {
                        let path = file.path();
                        fs::remove_file(&path)
                            .map_err(|e| StoreError::io(path.display().to_string(), e))?;
                        removed += 1;
                    }
                }
            }
        }
        Ok((removed, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "sdbp-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    /// Files a one-line note as a `test-note` v1 entry under a key derived
    /// from `name`.
    fn put_note(store: &Store, name: &str, note: &str) -> Digest {
        let key = Digest::of(name.as_bytes());
        store
            .put(key, "test-note", 1, &format!("{note}\n"))
            .unwrap();
        key
    }

    fn get_note(store: &Store, key: Digest) -> Result<Option<String>, StoreError> {
        store.get(key, "test-note", 1)
    }

    #[test]
    fn put_get_roundtrip_and_idempotence() {
        let store = temp_store("roundtrip");
        let key = put_note(&store, "greeting", "hello");
        assert_eq!(get_note(&store, key).unwrap(), Some("hello\n".into()));
        let expected = format!("# test-note 1 {}\nhello\n", Digest::of(b"hello\n"));
        assert_eq!(
            fs::read_to_string(store.path(key)).unwrap(),
            expected,
            "one header line, then the body"
        );
        // A second put of the same body writes the same bytes.
        put_note(&store, "greeting", "hello");
        assert_eq!(fs::read_to_string(store.path(key)).unwrap(), expected);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn put_replaces_a_damaged_entry() {
        let store = temp_store("replace");
        let key = put_note(&store, "note", "healthy");
        fs::write(store.path(key), b"garbage").unwrap();
        assert!(matches!(
            get_note(&store, key),
            Err(StoreError::Corrupt { .. })
        ));
        put_note(&store, "note", "healthy");
        assert_eq!(get_note(&store, key).unwrap(), Some("healthy\n".into()));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn absent_objects_read_as_none() {
        let store = temp_store("absent");
        let key = Digest::of(b"never stored");
        assert_eq!(get_note(&store, key).unwrap(), None);
        assert!(!store.remove(key).unwrap());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_object_is_typed_corruption_not_a_panic() {
        let store = temp_store("truncated");
        let key = put_note(&store, "note", "soon to be damaged");
        let path = store.path(key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match get_note(&store, key) {
            Err(StoreError::Corrupt { path: p, .. }) => {
                assert!(p.contains(&key.to_string()[2..]))
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn bitflipped_object_is_detected() {
        let store = temp_store("bitflip");
        let key = put_note(&store, "note", "flip me");
        let path = store.path(key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            get_note(&store, key),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_or_missing_headers_read_as_corruption() {
        let store = temp_store("headers");
        let other_schema = Digest::of(b"other schema");
        store.put(other_schema, "test-other", 1, "hello\n").unwrap();
        let other_version = Digest::of(b"other version");
        store.put(other_version, "test-note", 2, "hello\n").unwrap();
        // Files whose header carries no body digest: text without a header,
        // a binary blob, and the `# <schema> <version>` header of a
        // content-addressed object.
        let raw = |name: &str, bytes: &[u8]| {
            let key = Digest::of(name.as_bytes());
            fs::create_dir_all(store.path(key).parent().unwrap()).unwrap();
            fs::write(store.path(key), bytes).unwrap();
            key
        };
        let headless = raw("headless", b"hello\n");
        let binary = raw("binary", b"SDBA\x11\x00\xff\xfe");
        let undigested = raw("undigested", b"# test-note 1\nhello\n");
        let missing = "missing '# <schema> <version> <digest>' header line";
        for (key, reason) in [
            (other_schema, "entry holds test-other v1, not test-note v1"),
            (other_version, "entry holds test-note v2, not test-note v1"),
            (headless, missing),
            (binary, missing),
            (undigested, missing),
        ] {
            match get_note(&store, key) {
                Err(StoreError::Corrupt { reason: r, .. }) => assert_eq!(r, reason),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // `ls` labels what it can and flags the rest; `gc` prunes the rest.
        let schemas: Vec<_> = store
            .list()
            .unwrap()
            .iter()
            .map(|e| e.schema().ok())
            .collect();
        assert_eq!(schemas.iter().flatten().count(), 2, "{schemas:?}");
        assert_eq!(store.gc().unwrap(), (3, 2));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_truncation_reads_as_corruption() {
        let store = temp_store("cuts");
        let key = put_note(&store, "note", "cut me anywhere");
        let path = store.path(key);
        let bytes = fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            fs::write(&path, &bytes[..len]).unwrap();
            assert!(
                matches!(get_note(&store, key), Err(StoreError::Corrupt { .. })),
                "prefix of {len}"
            );
        }
        let _ = fs::remove_dir_all(store.root());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
            let store = temp_store("garbage");
            let key = Digest::of(&bytes);
            fs::create_dir_all(store.path(key).parent().unwrap()).unwrap();
            fs::write(store.path(key), &bytes).unwrap();
            // The one valid `test-note` entry this short is 47 exact bytes
            // (a header over an empty body); random bytes never form it.
            let read = get_note(&store, key);
            prop_assert!(matches!(read, Err(StoreError::Corrupt { .. })), "{:?}", read);
            let _ = store.list().unwrap()[0].schema();
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn list_is_sorted_and_skips_temp_files() {
        let store = temp_store("list");
        let k1 = put_note(&store, "first", "one");
        let k2 = put_note(&store, "second", "two");
        let shard = store.path(k1);
        fs::write(shard.parent().unwrap().join("tmp-999-0"), b"junk").unwrap();
        let entries = store.list().unwrap();
        let keys: Vec<Digest> = entries.iter().map(|e| e.key).collect();
        let mut expected = vec![k1, k2];
        expected.sort();
        assert_eq!(keys, expected);
        assert_eq!(entries[0].schema().unwrap(), ("test-note".to_string(), 1));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_removes_damage_and_keeps_the_healthy() {
        let store = temp_store("gc");
        let keep = put_note(&store, "keep", "healthy");
        let damaged = put_note(&store, "damaged", "doomed");
        let path = store.path(damaged);
        fs::write(&path, b"garbage").unwrap();
        let tmp = path.parent().unwrap().join("tmp-1-1");
        fs::write(&tmp, b"stray").unwrap();
        let (removed, kept) = store.gc().unwrap();
        assert_eq!((removed, kept), (2, 1), "damaged entry + stray temp");
        assert_eq!(get_note(&store, keep).unwrap(), Some("healthy\n".into()));
        assert_eq!(get_note(&store, damaged).unwrap(), None);
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(store.root());
    }
}
