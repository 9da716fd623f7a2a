//! Checkpoint generation chain: incremental images with corrupt-head
//! fallback.
//!
//! Instead of overwriting one monolithic JSON image, the spill-enabled
//! checkpoint path keeps a **manifest** at the configured checkpoint path
//! and writes each checkpoint image to a sibling *generation file*
//! (`<name>.gen<N>`). The manifest records every live generation with
//! its byte length and CRC-32, so resume can verify the head image
//! before trusting it and **fall back to the previous good generation**
//! when the head is truncated or corrupt — a warning, not an abort,
//! because the previous generation plus the capture's resume cursor
//! still reaches the identical verdict.
//!
//! The chain keeps the last [`KEEP_GENERATIONS`] generations; older
//! files are removed after the manifest no longer references them (so a
//! crash between the two steps leaves garbage files, never a manifest
//! pointing at nothing).
//!
//! For back-compat, [`GenChain::load_latest`] transparently accepts a
//! *plain* checkpoint file at the manifest path (pre-chain layouts):
//! anything that does not parse as a manifest is returned as a single
//! unverified legacy generation.

use super::crc32::crc32;
use super::io::StoreIo;
use super::{StoreError, StoreResult};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Generations retained in the manifest (head + fallback).
pub const KEEP_GENERATIONS: usize = 2;

/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    /// Monotonic generation number.
    gen: u64,
    /// Generation file name (sibling of the manifest).
    file: String,
    /// Byte length of the generation file.
    len: u64,
    /// CRC-32 (IEEE) of the generation file bytes.
    crc32: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    /// Distinguishes a manifest from a plain checkpoint image sitting at
    /// the same path; plain images never carry this field.
    genchain_version: u32,
    /// Live generations, oldest first.
    generations: Vec<ManifestEntry>,
}

/// A loaded checkpoint image plus how it was obtained.
#[derive(Debug)]
pub struct GenLoad {
    /// The checkpoint image bytes (JSON).
    pub payload: Vec<u8>,
    /// Generation number loaded (0 for a legacy plain file).
    pub generation: u64,
    /// `true` when the head generation was bad and an older one was
    /// used; the caller should surface [`GenLoad::warning`].
    pub fell_back: bool,
    /// Human-readable description of any fallback taken.
    pub warning: Option<String>,
}

/// The generation chain anchored at one manifest path. See module docs.
#[derive(Debug)]
pub struct GenChain {
    path: PathBuf,
}

impl GenChain {
    /// A chain anchored at `path` (the path users pass as the checkpoint
    /// file; the manifest lives there, generations are siblings).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> GenChain {
        GenChain { path: path.into() }
    }

    /// The manifest path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn gen_path(&self, entry: &ManifestEntry) -> PathBuf {
        match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.join(&entry.file),
            _ => PathBuf::from(&entry.file),
        }
    }

    fn gen_file_name(&self, generation: u64) -> String {
        let base = self.path.file_name().map_or_else(
            || "checkpoint".to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        format!("{base}.gen{generation}")
    }

    fn read_manifest(&self, io: &dyn StoreIo) -> StoreResult<Option<Manifest>> {
        let bytes = match io.read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return Ok(None); // binary garbage: not a manifest
        };
        // Not a manifest (e.g. a plain pre-chain checkpoint image): the
        // caller handles the legacy layout.
        match serde_json::from_str::<Manifest>(text) {
            Ok(m) if m.genchain_version == MANIFEST_VERSION => Ok(Some(m)),
            Ok(m) => Err(StoreError::corrupt(format!(
                "unsupported genchain manifest version {}",
                m.genchain_version
            ))),
            Err(_) => Ok(None),
        }
    }

    /// Appends `payload` as a new generation: writes the generation file
    /// atomically+durably, then the updated manifest, then prunes
    /// generations beyond [`KEEP_GENERATIONS`]. Returns the new
    /// generation number.
    pub fn append(&self, io: &dyn StoreIo, payload: &[u8]) -> StoreResult<u64> {
        let mut manifest = self.read_manifest(io)?.unwrap_or(Manifest {
            genchain_version: MANIFEST_VERSION,
            generations: Vec::new(),
        });
        let generation = manifest.generations.last().map_or(1, |e| e.gen + 1);
        let entry = ManifestEntry {
            gen: generation,
            file: self.gen_file_name(generation),
            len: payload.len() as u64,
            crc32: crc32(payload),
        };
        let gen_path = self.gen_path(&entry);
        io.write_atomic(&gen_path, payload)
            .map_err(StoreError::Io)?;
        manifest.generations.push(entry);
        let dropped: Vec<ManifestEntry> = if manifest.generations.len() > KEEP_GENERATIONS {
            manifest
                .generations
                .drain(..manifest.generations.len() - KEEP_GENERATIONS)
                .collect()
        } else {
            Vec::new()
        };
        let json = serde_json::to_string(&manifest)
            .map_err(|e| StoreError::corrupt(format!("manifest serialization failed: {e}")))?;
        io.write_atomic(&self.path, json.as_bytes())
            .map_err(StoreError::Io)?;
        // Prune only after the manifest stopped referencing these; a
        // failure here leaves garbage files, never dangling references.
        for old in dropped {
            let _ = io.remove(&self.gen_path(&old));
        }
        Ok(generation)
    }

    /// Loads the newest generation whose bytes verify against the
    /// manifest (length + CRC-32), falling back generation by generation
    /// and reporting the fallback in the returned [`GenLoad`]. A plain
    /// (pre-chain) checkpoint file at the manifest path is returned
    /// as-is as generation 0. Returns `Ok(None)` when nothing exists at
    /// the path; every-generation-bad is a typed corruption error.
    pub fn load_latest(&self, io: &dyn StoreIo) -> StoreResult<Option<GenLoad>> {
        let Some(manifest) = self.read_manifest(io)? else {
            // Legacy or absent: hand back the plain file if present.
            return match io.read(&self.path) {
                Ok(payload) => Ok(Some(GenLoad {
                    payload,
                    generation: 0,
                    fell_back: false,
                    warning: None,
                })),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(StoreError::Io(e)),
            };
        };
        if manifest.generations.is_empty() {
            return Err(StoreError::corrupt(
                "genchain manifest lists no generations",
            ));
        }
        let mut failures: Vec<String> = Vec::new();
        for entry in manifest.generations.iter().rev() {
            let path = self.gen_path(entry);
            let verdict = match io.read(&path) {
                Err(e) => Err(format!("generation {}: unreadable: {e}", entry.gen)),
                Ok(bytes) if bytes.len() as u64 != entry.len => Err(format!(
                    "generation {}: length {} != manifest {}",
                    entry.gen,
                    bytes.len(),
                    entry.len
                )),
                Ok(bytes) => {
                    let crc = crc32(&bytes);
                    if crc != entry.crc32 {
                        Err(format!(
                            "generation {}: crc {crc:#010x} != manifest {:#010x}",
                            entry.gen, entry.crc32
                        ))
                    } else {
                        Ok(bytes)
                    }
                }
            };
            match verdict {
                Ok(payload) => {
                    let fell_back = !failures.is_empty();
                    let warning = fell_back.then(|| {
                        format!(
                            "checkpoint head corrupt, resumed from generation {}: {}",
                            entry.gen,
                            failures.join("; ")
                        )
                    });
                    return Ok(Some(GenLoad {
                        payload,
                        generation: entry.gen,
                        fell_back,
                        warning,
                    }));
                }
                Err(why) => failures.push(why),
            }
        }
        Err(StoreError::corrupt(format!(
            "every checkpoint generation is corrupt: {}",
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::FsIo;
    use super::*;

    fn tmp_manifest(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-genchain-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("state.ckpt")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn append_then_load_returns_head() {
        let path = tmp_manifest("head");
        let chain = GenChain::new(&path);
        chain.append(&FsIo, b"gen one").expect("append 1");
        chain.append(&FsIo, b"gen two").expect("append 2");
        let load = chain.load_latest(&FsIo).expect("load").expect("present");
        assert_eq!(load.payload, b"gen two");
        assert_eq!(load.generation, 2);
        assert!(!load.fell_back);
        cleanup(&path);
    }

    #[test]
    fn corrupt_head_falls_back_with_warning() {
        let path = tmp_manifest("fallback");
        let chain = GenChain::new(&path);
        chain.append(&FsIo, b"good old image").expect("append 1");
        chain.append(&FsIo, b"bad new image").expect("append 2");
        // Corrupt the head generation file.
        let head = path.parent().unwrap().join("state.ckpt.gen2");
        let mut bytes = std::fs::read(&head).expect("read head");
        bytes[0] ^= 0xff;
        std::fs::write(&head, &bytes).expect("corrupt head");
        let load = chain.load_latest(&FsIo).expect("load").expect("present");
        assert_eq!(load.payload, b"good old image");
        assert_eq!(load.generation, 1);
        assert!(load.fell_back);
        let warning = load.warning.expect("fallback carries a warning");
        assert!(warning.contains("generation 1"), "{warning}");
        cleanup(&path);
    }

    #[test]
    fn truncated_head_falls_back_too() {
        let path = tmp_manifest("trunc");
        let chain = GenChain::new(&path);
        chain.append(&FsIo, b"good old image").expect("append 1");
        chain.append(&FsIo, b"bad new image").expect("append 2");
        let head = path.parent().unwrap().join("state.ckpt.gen2");
        std::fs::write(&head, b"bad").expect("truncate head");
        let load = chain.load_latest(&FsIo).expect("load").expect("present");
        assert_eq!(load.payload, b"good old image");
        assert!(load.fell_back);
        cleanup(&path);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let path = tmp_manifest("allbad");
        let chain = GenChain::new(&path);
        chain.append(&FsIo, b"one").expect("append 1");
        chain.append(&FsIo, b"two").expect("append 2");
        for gen in ["state.ckpt.gen1", "state.ckpt.gen2"] {
            let p = path.parent().unwrap().join(gen);
            std::fs::write(&p, b"garbage that fails crc").expect("corrupt");
        }
        let err = chain.load_latest(&FsIo).expect_err("all-bad must error");
        assert!(matches!(err, StoreError::Corrupt(_)), "typed: {err}");
        cleanup(&path);
    }

    #[test]
    fn old_generations_are_pruned() {
        let path = tmp_manifest("prune");
        let chain = GenChain::new(&path);
        for i in 0..5u8 {
            chain.append(&FsIo, &[i; 8]).expect("append");
        }
        let dir = path.parent().unwrap();
        let gens: Vec<_> = std::fs::read_dir(dir)
            .expect("ls")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".gen"))
            .collect();
        assert_eq!(gens.len(), KEEP_GENERATIONS, "keeps only the last two");
        let load = chain.load_latest(&FsIo).expect("load").expect("present");
        assert_eq!(load.payload, vec![4u8; 8]);
        assert_eq!(load.generation, 5);
        cleanup(&path);
    }

    #[test]
    fn plain_checkpoint_file_is_accepted_as_legacy() {
        let path = tmp_manifest("legacy");
        std::fs::write(&path, br#"{"version":3,"plain":"checkpoint"}"#).expect("write");
        let chain = GenChain::new(&path);
        let load = chain.load_latest(&FsIo).expect("load").expect("present");
        assert_eq!(load.generation, 0, "legacy plain file is generation 0");
        assert!(!load.fell_back);
        cleanup(&path);
    }

    #[test]
    fn missing_path_loads_none() {
        let path = tmp_manifest("absent");
        let chain = GenChain::new(&path);
        assert!(chain.load_latest(&FsIo).expect("ok").is_none());
        cleanup(&path);
    }
}
