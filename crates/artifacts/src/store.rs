//! The content-addressed object store.
//!
//! Layout, modeled after git's loose-object store:
//!
//! ```text
//! <root>/objects/<aa>/<bbbbbbbb...>    aa = first 2 hex digits of the digest
//! <root>/links/<aa>/<bbbbbbbb...>      named pointers into objects/
//! ```
//!
//! An object is text: one header line, `# <schema> <version>`, naming what
//! it holds, then its body (for a profile, the profile's text lines).
//! Objects are immutable and keyed by the [`Digest`] of their bytes, so a
//! write is naturally idempotent: if the path already exists the content is
//! already right. Writes go to a temp file in the same directory and then
//! [`std::fs::rename`] into place, which is atomic on POSIX filesystems — a
//! killed process can leave stray `tmp-*` files (cleaned by `gc`) but never
//! a half-written object under a valid name.
//!
//! **Links** are the store's ref layer (like git refs): a link is named by a
//! *derived* digest — e.g. the hash of `(benchmark, input, seed, budget)` —
//! and its one-line content is the content digest of the object it points
//! at. They are what lets a cache ask "do we already have the bias profile
//! of this run?" without knowing the profile's bytes in advance.
//!
//! Reads re-digest the content and check the header line; damage surfaces
//! as the typed [`StoreError::Corrupt`], never a panic.

use crate::digest::Digest;
use crate::error::StoreError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Disambiguates temp files when several threads (or processes on a shared
/// filesystem) write into one store concurrently.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A content-addressed store of serialized artifacts on disk.
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
/// let digest = store.put_bytes_addressed(b"payload")?;
/// assert_eq!(store.get_bytes(digest)?, Some(b"payload".to_vec()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// One object in the store, as listed by [`Store::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The object's content digest (its name).
    pub digest: Digest,
    /// Size in bytes.
    pub size: u64,
    /// Full path of the object file.
    pub path: PathBuf,
}

impl StoreEntry {
    /// The schema name and version in the object's header line, if its
    /// content still matches its digest; [`StoreError::Corrupt`] otherwise
    /// (how `artifact ls` flags damage without knowing artifact types).
    pub fn schema(&self) -> Result<(String, u32), StoreError> {
        let path = &self.path;
        let bytes = fs::read(path).map_err(|e| StoreError::io(path.display().to_string(), e))?;
        validate_content(&bytes, self.digest, path)?;
        let (schema, version, _) = split_header(&bytes).map_err(|reason| corrupt(path, reason))?;
        Ok((schema.to_string(), version))
    }
}

/// Splits an object into the schema and version of its header line and the
/// body after it.
fn split_header(bytes: &[u8]) -> Result<(&str, u32, &str), String> {
    let missing = || "missing '# <schema> <version>' header line".to_string();
    let text = std::str::from_utf8(bytes).map_err(|_| missing())?;
    let (header, body) = text.split_once('\n').ok_or_else(missing)?;
    let (schema, version) = header
        .strip_prefix("# ")
        .and_then(|fields| fields.split_once(' '))
        .ok_or_else(missing)?;
    let version = version.parse().map_err(|_| missing())?;
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

/// Checks stored bytes still hash to the digest they are filed under.
fn validate_content(bytes: &[u8], digest: Digest, path: &Path) -> Result<(), StoreError> {
    let actual = Digest::of(bytes);
    if actual != digest {
        return Err(corrupt(
            path,
            format!("content hashes to {actual}, filed under {digest}"),
        ));
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
        for area in ["objects", "links"] {
            let dir = root.join(area);
            fs::create_dir_all(&dir).map_err(|e| StoreError::io(dir.display().to_string(), e))?;
        }
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an object with this digest lives at.
    pub fn object_path(&self, digest: Digest) -> PathBuf {
        let hex = digest.to_string();
        self.root.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    /// The path a link with this name lives at.
    pub fn link_path(&self, name: Digest) -> PathBuf {
        let hex = name.to_string();
        self.root.join("links").join(&hex[..2]).join(&hex[2..])
    }

    /// Whether an object with this digest exists.
    pub fn contains(&self, digest: Digest) -> bool {
        self.object_path(digest).exists()
    }

    /// Writes raw bytes under an explicit digest. Returns `false` (without
    /// touching the filesystem) when the object already exists.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put_bytes(&self, digest: Digest, bytes: &[u8]) -> Result<bool, StoreError> {
        let path = self.object_path(digest);
        if path.exists() {
            return Ok(false);
        }
        write_atomic(&path, bytes)?;
        Ok(true)
    }

    /// Digests `bytes` and stores them under that digest.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put_bytes_addressed(&self, bytes: &[u8]) -> Result<Digest, StoreError> {
        let digest = Digest::of(bytes);
        self.put_bytes(digest, bytes)?;
        Ok(digest)
    }

    /// Writes (or atomically replaces) a link: a derived-key name pointing
    /// at a content digest in `objects/`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put_link(&self, name: Digest, target: Digest) -> Result<(), StoreError> {
        write_atomic(&self.link_path(name), format!("{target}\n").as_bytes())
    }

    /// Resolves a link to the content digest it names; `Ok(None)` when the
    /// link does not exist.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when the link file's content is not a digest.
    pub fn get_link(&self, name: Digest) -> Result<Option<Digest>, StoreError> {
        let path = self.link_path(name);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(path.display().to_string(), e)),
        };
        text.trim()
            .parse::<Digest>()
            .map(Some)
            .map_err(|reason| corrupt(&path, reason))
    }

    /// Deletes a link; `Ok(false)` when it was not there.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn remove_link(&self, name: Digest) -> Result<bool, StoreError> {
        let path = self.link_path(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io(path.display().to_string(), e)),
        }
    }

    /// Reads an object's raw bytes; `Ok(None)` when absent. Content is
    /// re-digested, so a damaged object reads as [`StoreError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`] on
    /// content/digest mismatch.
    pub fn get_bytes(&self, digest: Digest) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.object_path(digest);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(path.display().to_string(), e)),
        };
        validate_content(&bytes, digest, &path)?;
        Ok(Some(bytes))
    }

    /// Stores `body` under the header line `# <schema> <version>`,
    /// returning the object's content digest.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put(&self, schema: &str, version: u32, body: &str) -> Result<Digest, StoreError> {
        self.put_bytes_addressed(format!("# {schema} {version}\n{body}").as_bytes())
    }

    /// Reads the body of an object stored as `schema` at `version`;
    /// `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when the object fails its digest check or its header line is
    /// missing or names another schema or version.
    pub fn get(
        &self,
        digest: Digest,
        schema: &str,
        version: u32,
    ) -> Result<Option<String>, StoreError> {
        let Some(bytes) = self.get_bytes(digest)? else {
            return Ok(None);
        };
        let path = self.object_path(digest);
        let (found, found_version, body) =
            split_header(&bytes).map_err(|reason| corrupt(&path, reason))?;
        if (found, found_version) != (schema, version) {
            return Err(corrupt(
                &path,
                format!("object holds {found} v{found_version}, not {schema} v{version}"),
            ));
        }
        Ok(Some(body.to_string()))
    }

    /// Deletes an object; `Ok(false)` when it was not there.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn remove(&self, digest: Digest) -> Result<bool, StoreError> {
        let path = self.object_path(digest);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io(path.display().to_string(), e)),
        }
    }

    /// Lists every object, sorted by digest. Stray temp files and foreign
    /// names are skipped, not errors.
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
            for object in read_dir(&shard.path())? {
                let Some(rest) = object.file_name().to_str().map(String::from) else {
                    continue;
                };
                let Ok(digest) = format!("{prefix}{rest}").parse::<Digest>() else {
                    continue; // temp files, editor droppings
                };
                let meta = object
                    .metadata()
                    .map_err(|e| StoreError::io(object.path().display().to_string(), e))?;
                entries.push(StoreEntry {
                    digest,
                    size: meta.len(),
                    path: object.path(),
                });
            }
        }
        entries.sort_by_key(|e| e.digest);
        Ok(entries)
    }

    /// Deletes objects whose content no longer matches their digest or whose
    /// header line is missing, links that are unreadable or point at a
    /// missing object, plus stray temp files in both areas. Returns
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
                    self.remove(entry.digest)?;
                    removed += 1;
                }
                Err(e) => return Err(e),
            }
        }
        for name in self.link_names()? {
            let broken = match self.get_link(name) {
                Ok(Some(target)) => !self.contains(target),
                Ok(None) => false, // raced with a concurrent remove
                Err(StoreError::Corrupt { .. }) => true,
                Err(e) => return Err(e),
            };
            if broken {
                self.remove_link(name)?;
                removed += 1;
            } else {
                kept += 1;
            }
        }
        // Stray temp files from killed writers.
        for area in ["objects", "links"] {
            let Ok(shards) = fs::read_dir(self.root.join(area)) else {
                continue;
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
        }
        Ok((removed, kept))
    }

    /// Every link name currently present, sorted.
    fn link_names(&self) -> Result<Vec<Digest>, StoreError> {
        let links = self.root.join("links");
        let mut names = Vec::new();
        let shards = match fs::read_dir(&links) {
            Ok(shards) => shards,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(StoreError::io(links.display().to_string(), e)),
        };
        for shard in shards.flatten() {
            if !shard.path().is_dir() {
                continue;
            }
            let Some(prefix) = shard.file_name().to_str().map(String::from) else {
                continue;
            };
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let Some(rest) = file.file_name().to_str().map(String::from) else {
                    continue;
                };
                if let Ok(name) = format!("{prefix}{rest}").parse::<Digest>() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
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

    /// Stores a one-line note as a `test-note` v1 object.
    fn put_note(store: &Store, note: &str) -> Digest {
        store.put("test-note", 1, &format!("{note}\n")).unwrap()
    }

    fn get_note(store: &Store, digest: Digest) -> Result<Option<String>, StoreError> {
        store.get(digest, "test-note", 1)
    }

    #[test]
    fn put_get_roundtrip_and_idempotence() {
        let store = temp_store("roundtrip");
        let digest = put_note(&store, "hello");
        assert!(store.contains(digest));
        assert_eq!(get_note(&store, digest).unwrap(), Some("hello\n".into()));
        assert_eq!(
            store.get_bytes(digest).unwrap(),
            Some(b"# test-note 1\nhello\n".to_vec()),
            "one header line, then the body"
        );
        // Second put of identical content is a no-op.
        assert!(!store.put_bytes(digest, b"# test-note 1\nhello\n").unwrap());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn absent_objects_read_as_none() {
        let store = temp_store("absent");
        let digest = Digest::of(b"never stored");
        assert_eq!(store.get_bytes(digest).unwrap(), None);
        assert_eq!(get_note(&store, digest).unwrap(), None);
        assert!(!store.remove(digest).unwrap());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_object_is_typed_corruption_not_a_panic() {
        let store = temp_store("truncated");
        let digest = put_note(&store, "soon to be damaged");
        let path = store.object_path(digest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match get_note(&store, digest) {
            Err(StoreError::Corrupt { path: p, .. }) => {
                assert!(p.contains(&digest.to_string()[2..]))
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn bitflipped_object_is_detected() {
        let store = temp_store("bitflip");
        let digest = put_note(&store, "flip me");
        let path = store.object_path(digest);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            get_note(&store, digest),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_or_missing_headers_read_as_corruption() {
        let store = temp_store("headers");
        let other_schema = store.put("test-other", 1, "hello\n").unwrap();
        let other_version = store.put("test-note", 2, "hello\n").unwrap();
        // Intact objects whose bytes carry no header: text without one, and
        // a binary blob (the shape of an object written before headers).
        let headless = store.put_bytes_addressed(b"hello\n").unwrap();
        let binary = store.put_bytes_addressed(b"SDBA\x11\x00\xff\xfe").unwrap();
        for (digest, reason) in [
            (other_schema, "object holds test-other v1, not test-note v1"),
            (other_version, "object holds test-note v2, not test-note v1"),
            (headless, "missing '# <schema> <version>' header line"),
            (binary, "missing '# <schema> <version>' header line"),
        ] {
            match get_note(&store, digest) {
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
        assert_eq!(store.gc().unwrap(), (2, 2));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_truncation_reads_as_corruption() {
        let store = temp_store("cuts");
        let digest = put_note(&store, "cut me anywhere");
        let path = store.object_path(digest);
        let bytes = fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            fs::write(&path, &bytes[..len]).unwrap();
            assert!(
                matches!(get_note(&store, digest), Err(StoreError::Corrupt { .. })),
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
            let digest = store.put_bytes_addressed(&bytes).unwrap();
            let read = get_note(&store, digest);
            let header_matches =
                std::str::from_utf8(&bytes).is_ok_and(|text| text.starts_with("# test-note 1\n"));
            prop_assert_eq!(read.is_ok(), header_matches);
            let _ = store.list().unwrap()[0].schema();
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn list_is_sorted_and_skips_temp_files() {
        let store = temp_store("list");
        let d1 = put_note(&store, "one");
        let d2 = put_note(&store, "two");
        let shard = store.object_path(d1);
        fs::write(shard.parent().unwrap().join("tmp-999-0"), b"junk").unwrap();
        let entries = store.list().unwrap();
        let digests: Vec<Digest> = entries.iter().map(|e| e.digest).collect();
        let mut expected = vec![d1, d2];
        expected.sort();
        assert_eq!(digests, expected);
        assert_eq!(entries[0].schema().unwrap(), ("test-note".to_string(), 1));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn links_resolve_and_replace_atomically() {
        let store = temp_store("links");
        let target = put_note(&store, "pointed at");
        let name = Digest::of(b"derived cache key");
        assert_eq!(store.get_link(name).unwrap(), None);
        store.put_link(name, target).unwrap();
        assert_eq!(store.get_link(name).unwrap(), Some(target));
        // Links are replaceable (unlike objects).
        let other = put_note(&store, "new target");
        store.put_link(name, other).unwrap();
        assert_eq!(store.get_link(name).unwrap(), Some(other));
        assert!(store.remove_link(name).unwrap());
        assert!(!store.remove_link(name).unwrap());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_prunes_dangling_and_garbled_links() {
        let store = temp_store("gc-links");
        let target = put_note(&store, "kept");
        let good = Digest::of(b"good link");
        store.put_link(good, target).unwrap();
        let dangling = Digest::of(b"dangling link");
        store
            .put_link(dangling, Digest::of(b"no such object"))
            .unwrap();
        let garbled = Digest::of(b"garbled link");
        store.put_link(garbled, target).unwrap();
        fs::write(store.link_path(garbled), "not a digest").unwrap();
        let (removed, kept) = store.gc().unwrap();
        assert_eq!((removed, kept), (2, 2), "object + good link kept");
        assert_eq!(store.get_link(good).unwrap(), Some(target));
        assert_eq!(store.get_link(dangling).unwrap(), None);
        assert_eq!(store.get_link(garbled).unwrap(), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_removes_damage_and_keeps_the_healthy() {
        let store = temp_store("gc");
        let keep = put_note(&store, "healthy");
        let damaged = put_note(&store, "doomed");
        let path = store.object_path(damaged);
        fs::write(&path, b"garbage").unwrap();
        let tmp = path.parent().unwrap().join("tmp-1-1");
        fs::write(&tmp, b"stray").unwrap();
        let (removed, kept) = store.gc().unwrap();
        assert_eq!((removed, kept), (2, 1), "damaged object + stray temp");
        assert!(store.contains(keep));
        assert!(!store.contains(damaged));
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(store.root());
    }
}
