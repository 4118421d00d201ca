//! Content-addressed on-disk cache: keys, modes and the atomic file
//! store.
//!
//! A [`CacheKey`] is a 128-bit digest of *everything that determines the
//! cached artifact* — configuration fields, input content fingerprints and
//! a format-version salt, so a codec change silently retires old entries
//! instead of misreading them. Writes go through a temp-file + rename so a
//! crashed run never leaves a torn blob behind; corrupt files are detected
//! by the container checksum and reported as [`Loaded::Rejected`], which
//! callers treat as a miss.

use crate::container::{self, FORMAT_VERSION};
use crate::StoreError;
use autoax_exec::hash::{mix64, Fnv64};
use autoax_telemetry::{self as telemetry, ax_warn};
use std::path::{Path, PathBuf};

/// Records one disk-load outcome under the store's metric taxonomy:
/// `autoax_store_loads_total{kind,result}` plus an
/// `autoax_store_load_ns{kind}` latency sample. Only called when the
/// registry is subscribed; the label lookup cost is noise next to the
/// `fs::read` it annotates.
fn record_load(kind: &str, result: &'static str, ns: u64) {
    telemetry::counter_with(
        "autoax_store_loads_total",
        &[("kind", kind), ("result", result)],
    )
    .inc();
    telemetry::histogram_with("autoax_store_load_ns", &[("kind", kind)]).record(ns);
}

fn record_save(kind: &str, result: &'static str, ns: u64) {
    telemetry::counter_with(
        "autoax_store_saves_total",
        &[("kind", kind), ("result", result)],
    )
    .inc();
    telemetry::histogram_with("autoax_store_save_ns", &[("kind", kind)]).record(ns);
}

/// How a pipeline interacts with the on-disk cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never touch the cache (the default).
    #[default]
    Off,
    /// Read existing entries, never write new ones (useful for shared
    /// read-only artifact directories).
    Read,
    /// Read existing entries and write missing ones.
    ReadWrite,
}

impl CacheMode {
    /// True when lookups should be attempted.
    pub fn reads(self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// True when missing entries should be written back.
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }

    /// Parses a CLI flag value (`off`, `read`, `rw`/`read-write`).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "off" => Some(CacheMode::Off),
            "read" => Some(CacheMode::Read),
            "rw" | "read-write" | "readwrite" => Some(CacheMode::ReadWrite),
            _ => None,
        }
    }
}

impl std::fmt::Display for CacheMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheMode::Off => write!(f, "off"),
            CacheMode::Read => write!(f, "read"),
            CacheMode::ReadWrite => write!(f, "rw"),
        }
    }
}

/// Parses the standard warm-start CLI flags from an argument list:
/// `--cache-dir <path>` / `--cache-dir=<path>` and
/// `--cache off|read|rw` / `--cache=<mode>`.
///
/// `--cache-dir` alone implies [`CacheMode::ReadWrite`] (the common
/// "just make repeat runs fast" intent); without a directory caching is
/// off regardless of mode. An unrecognized mode value warns through the
/// leveled logger (visible with `AUTOAX_LOG=warn`) and disables caching
/// entirely — a typo must not silently enable (or keep) cache reads the
/// user asked to turn off.
///
/// This is the single flag parser shared by the examples and the bench
/// binaries, so every entry point accepts the same syntax.
pub fn parse_cache_flags(args: &[String]) -> (Option<PathBuf>, CacheMode) {
    let mut dir: Option<PathBuf> = None;
    let mut mode: Option<CacheMode> = None;
    let mut bad_mode = false;
    let mut set_mode = |s: &str| match CacheMode::parse(s) {
        Some(m) => Some(m),
        None => {
            ax_warn!("unknown cache mode `{s}`, caching disabled");
            bad_mode = true;
            None
        }
    };
    for (i, a) in args.iter().enumerate() {
        if let Some(rest) = a.strip_prefix("--cache-dir=") {
            dir = Some(PathBuf::from(rest));
        } else if a == "--cache-dir" {
            dir = args.get(i + 1).map(PathBuf::from);
        } else if let Some(rest) = a.strip_prefix("--cache=") {
            mode = set_mode(rest);
        } else if a == "--cache" {
            mode = args.get(i + 1).and_then(|v| set_mode(v));
        }
    }
    if bad_mode {
        return (None, CacheMode::Off);
    }
    match dir {
        Some(d) => (Some(d), mode.unwrap_or(CacheMode::ReadWrite)),
        None => (None, CacheMode::Off),
    }
}

/// A 128-bit content-address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl CacheKey {
    /// Lower-case hex rendering (32 chars), used in file names.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Incremental key hasher: two independent FNV-1a 64 lanes (different
/// offset bases, the second lane additionally length-prefixes every field)
/// giving a 128-bit digest. Not cryptographic — collision *accidents* are
/// what matters for a cache, and 128 bits of mixed state makes them
/// negligible.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: Fnv64,
    b: Fnv64,
}

impl KeyHasher {
    /// A new hasher for a named artifact domain, salted with the store
    /// format version (so codec changes retire old entries) and the
    /// domain string (so a library key can never alias a pipeline key).
    pub fn new(domain: &str) -> Self {
        let mut h = KeyHasher {
            a: Fnv64::new(),
            b: Fnv64::with_basis(0x6c62_272e_07bb_0142), // distinct offset basis for lane b
        };
        h.write_u64(FORMAT_VERSION as u64);
        h.write_str(domain);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.a.bytes(bytes);
        // lane b: length-prefixed so field boundaries cannot alias
        self.b.bytes(&(bytes.len() as u64).to_le_bytes());
        self.b.bytes(bytes);
    }

    /// Feeds a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds an optional `u64` (presence is part of the digest).
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.write_u64(1);
                self.write_u64(x);
            }
            None => self.write_u64(0),
        }
    }

    /// Finalizes into a key.
    pub fn finish(&self) -> CacheKey {
        // one avalanche round per lane so short inputs spread
        CacheKey {
            hi: mix64(self.a.finish()),
            lo: mix64(self.b.finish()),
        }
    }
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum Loaded {
    /// A valid blob was found; the payload is returned.
    Hit(Vec<u8>),
    /// No file exists for the key.
    Miss,
    /// A file exists but failed validation (corrupt, truncated, wrong
    /// version or tag) or could not be read. Callers recompute; in
    /// read-write mode the entry is overwritten with a fresh one.
    Rejected(StoreError),
}

impl Loaded {
    /// The payload of a hit, if any.
    pub fn into_hit(self) -> Option<Vec<u8>> {
        match self {
            Loaded::Hit(p) => Some(p),
            _ => None,
        }
    }
}

/// Anything that can load and save sealed, content-addressed blobs — the
/// seam between the pipeline's warm-start logic and the storage topology
/// behind it.
///
/// [`Store`] is the plain one-directory implementation;
/// [`crate::sharded::ShardedStore`] is the service tier's concurrent
/// implementation (key-prefix shards with per-shard locks plus an
/// in-memory LRU over the disk files). `autoax::pipeline::run_pipeline`
/// accepts a shared `Arc<dyn BlobStore>`, so N concurrent tenants can
/// warm-start Steps 1–2 from one process-wide store.
pub trait BlobStore: Send + Sync + std::fmt::Debug {
    /// Looks an entry up, validating the container. Semantics of
    /// [`Store::load`].
    fn load_blob(&self, kind: &str, key: CacheKey, tag: [u8; 4]) -> Loaded;

    /// Seals and persists an entry (atomic with respect to concurrent
    /// readers of the same key).
    ///
    /// # Errors
    /// Propagates filesystem errors; the destination is never left torn.
    fn save_blob(
        &self,
        kind: &str,
        key: CacheKey,
        tag: [u8; 4],
        payload: Vec<u8>,
    ) -> Result<(), StoreError>;
}

impl BlobStore for Store {
    fn load_blob(&self, kind: &str, key: CacheKey, tag: [u8; 4]) -> Loaded {
        self.load(kind, key, tag)
    }

    fn save_blob(
        &self,
        kind: &str,
        key: CacheKey,
        tag: [u8; 4],
        payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        self.save(kind, key, tag, payload).map(|_| ())
    }
}

/// A directory of sealed, content-addressed blobs.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of an entry: `<dir>/<kind>-<keyhex>.axbin`.
    pub fn entry_path(&self, kind: &str, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{kind}-{}.axbin", key.hex()))
    }

    /// Looks an entry up, validating the container (magic, checksum,
    /// version, tag). Never panics and never returns unvalidated bytes.
    pub fn load(&self, kind: &str, key: CacheKey, tag: [u8; 4]) -> Loaded {
        let t0 = telemetry::metrics_enabled().then(std::time::Instant::now);
        let loaded = self.load_inner(kind, key, tag);
        if let Some(t0) = t0 {
            let result = match &loaded {
                Loaded::Hit(_) => "hit",
                Loaded::Miss => "miss",
                Loaded::Rejected(_) => "rejected",
            };
            record_load(kind, result, t0.elapsed().as_nanos() as u64);
        }
        loaded
    }

    fn load_inner(&self, kind: &str, key: CacheKey, tag: [u8; 4]) -> Loaded {
        let path = self.entry_path(kind, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Loaded::Miss,
            Err(e) => return Loaded::Rejected(e.into()),
        };
        match container::unseal(&bytes, tag) {
            Ok(payload) => Loaded::Hit(payload.to_vec()),
            Err(e) => Loaded::Rejected(e),
        }
    }

    /// Seals and writes an entry atomically (temp file + rename), creating
    /// the directory on demand.
    ///
    /// # Errors
    /// Propagates filesystem errors; the destination is never left torn.
    pub fn save(
        &self,
        kind: &str,
        key: CacheKey,
        tag: [u8; 4],
        payload: Vec<u8>,
    ) -> Result<PathBuf, StoreError> {
        let t0 = telemetry::metrics_enabled().then(std::time::Instant::now);
        let saved = self.save_inner(kind, key, tag, payload);
        if let Some(t0) = t0 {
            let result = if saved.is_ok() { "ok" } else { "error" };
            record_save(kind, result, t0.elapsed().as_nanos() as u64);
        }
        saved
    }

    fn save_inner(
        &self,
        kind: &str,
        key: CacheKey,
        tag: [u8; 4],
        payload: Vec<u8>,
    ) -> Result<PathBuf, StoreError> {
        std::fs::create_dir_all(&self.dir)?;
        let blob = container::seal(tag, payload);
        let path = self.entry_path(kind, key);
        let tmp = self
            .dir
            .join(format!(".{kind}-{}.{}.tmp", key.hex(), std::process::id()));
        std::fs::write(&tmp, &blob)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("autoax-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::new(dir)
    }

    fn key(n: u64) -> CacheKey {
        let mut h = KeyHasher::new("test");
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn save_then_load_hits() {
        let s = temp_store("hit");
        let k = key(1);
        s.save("unit", k, *b"UNIT", vec![1, 2, 3]).unwrap();
        match s.load("unit", k, *b"UNIT") {
            Loaded::Hit(p) => assert_eq!(p, vec![1, 2, 3]),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn missing_entry_is_miss() {
        let s = temp_store("miss");
        assert!(matches!(s.load("unit", key(2), *b"UNIT"), Loaded::Miss));
    }

    #[test]
    fn corrupt_entry_is_rejected() {
        let s = temp_store("corrupt");
        let k = key(3);
        let path = s.save("unit", k, *b"UNIT", vec![7; 64]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            s.load("unit", k, *b"UNIT"),
            Loaded::Rejected(StoreError::Checksum)
        ));
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let s = temp_store("tag");
        let k = key(4);
        s.save("unit", k, *b"AAAA", vec![1]).unwrap();
        assert!(matches!(
            s.load("unit", k, *b"BBBB"),
            Loaded::Rejected(StoreError::Tag { .. })
        ));
    }

    #[test]
    fn keys_separate_domains_and_fields() {
        let a = KeyHasher::new("library").finish();
        let b = KeyHasher::new("pipeline").finish();
        assert_ne!(a, b);
        // field-boundary aliasing: ("ab","c") vs ("a","bc")
        let mut h1 = KeyHasher::new("x");
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = KeyHasher::new("x");
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
        assert_eq!(h1.finish().hex(), "f9b4ec2da82a0ae23d0a79e96feb8fbc");
    }

    #[test]
    fn cli_flag_parsing() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // dir alone implies read-write
        let (dir, mode) = parse_cache_flags(&to_args(&["bin", "--cache-dir", "d"]));
        assert_eq!(dir, Some(PathBuf::from("d")));
        assert_eq!(mode, CacheMode::ReadWrite);
        // `=` forms and explicit mode
        let (dir, mode) = parse_cache_flags(&to_args(&["bin", "--cache-dir=x", "--cache=read"]));
        assert_eq!(dir, Some(PathBuf::from("x")));
        assert_eq!(mode, CacheMode::Read);
        // no dir -> off, whatever the mode says
        let (dir, mode) = parse_cache_flags(&to_args(&["bin", "--cache", "rw"]));
        assert_eq!(dir, None);
        assert_eq!(mode, CacheMode::Off);
        // a bad mode disables caching entirely (never silently falls
        // back to read-write)
        let (dir, mode) =
            parse_cache_flags(&to_args(&["bin", "--cache-dir", "d", "--cache", "bogus"]));
        assert_eq!(dir, None);
        assert_eq!(mode, CacheMode::Off);
        // no flags at all
        let (dir, mode) = parse_cache_flags(&to_args(&["bin"]));
        assert_eq!(dir, None);
        assert_eq!(mode, CacheMode::Off);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("read"), Some(CacheMode::Read));
        assert_eq!(CacheMode::parse("rw"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("read-write"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("bogus"), None);
        assert!(CacheMode::ReadWrite.reads() && CacheMode::ReadWrite.writes());
        assert!(CacheMode::Read.reads() && !CacheMode::Read.writes());
        assert!(!CacheMode::Off.reads());
    }
}
