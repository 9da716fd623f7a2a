//! The one way into and out of a [`Verifier`] for a driver that keeps it
//! durable — `leopard verify`, the online chain, every `leopard serve`
//! stream: [`open`] it (fresh, or resumed from an image), [`feed`] it,
//! [`save`] an image, [`finish`] it. The drivers differ in error *policy*
//! only — verify exits, the online chain carries on, serve retries and
//! then quarantines. The protocol these functions fix:
//!
//! * a spill tier that cannot be opened is a counted fallback to memory
//!   when nothing is spilled yet, a typed refusal when an image names
//!   records inside it;
//! * an image is resumed only under the configuration it was written with;
//! * an image is written only after the tier it references is synced, and
//!   counted only once it is on disk;
//! * a latched store fault is an error from [`feed`], [`save`] and
//!   [`finish`] — never a verdict, never an image.

use super::{Verifier, VerifierConfig, VerifyOutcome};
use crate::catalog::IsolationLevel;
use crate::checkpoint::{CheckpointError, LoadedImage};
use crate::obs;
use crate::store::{SpillSettings, SpillTier, StoreError, StoreIo, StoreResult};
use crate::trace::Trace;
use crate::types::{Key, Value};
use std::path::{Path, PathBuf};

/// Everything that configures one engine, declared once for every driver.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Level (mechanisms), memory budget, degraded mode, skew bound, GC.
    pub verifier: VerifierConfig,
    /// Disk-spilling backing tier for cold verifier state — rung 1.5 of
    /// the overload ladder, between forced GC and forced dispatch. `None`
    /// keeps everything in memory.
    pub spill: Option<SpillSettings>,
    /// Where the checkpoint image goes. `None` writes none.
    pub checkpoint: Option<PathBuf>,
    /// Write an image every this many ingested traces; `None` writes only
    /// the one at the end of the run.
    pub checkpoint_every: Option<u64>,
}

impl Default for EngineOpts {
    /// Serializable, unbudgeted, in memory, no image.
    fn default() -> EngineOpts {
        EngineOpts {
            verifier: VerifierConfig::for_level(IsolationLevel::Serializable),
            spill: None,
            checkpoint: None,
            checkpoint_every: None,
        }
    }
}

impl EngineOpts {
    /// `true` when `ingested` traces is a boundary of the image cadence.
    #[must_use]
    pub fn checkpoint_due(&self, ingested: u64) -> bool {
        self.checkpoint_every
            .is_some_and(|every| every > 0 && ingested.is_multiple_of(every))
    }
}

/// What [`open`] hands back.
#[derive(Debug)]
pub struct Opened {
    /// The verifier, tier attached and preload or image applied.
    pub verifier: Verifier,
    /// Traces already ingested (zero for a fresh start): feed the stream
    /// from here.
    pub cursor: u64,
    /// Byte size of the image resumed from (zero for a fresh start).
    pub image_bytes: u64,
    /// Degraded-but-safe conditions met on the way — a previous-image
    /// fallback, a spill tier that could not be opened — each also a
    /// coverage note; a driver with an operator prints them.
    pub warnings: Vec<String>,
}

/// Builds the verifier — from `image` if there is one, else fresh from
/// `opts.verifier` with `preload` installed — and opens and attaches (on
/// resume: re-adopts) the spill tier.
///
/// Refused, with a typed error and no verifier: an image written under a
/// configuration other than `opts.verifier`, and an image that names
/// spilled records when no tier is configured or it cannot be opened. A
/// fresh start refuses nothing.
pub fn open(
    opts: &EngineOpts,
    image: Option<LoadedImage>,
    preload: &[(Key, Value)],
) -> Result<Opened, CheckpointError> {
    if image
        .as_ref()
        .is_some_and(|i| i.checkpoint.config != opts.verifier)
    {
        return Err(CheckpointError::ConfigMismatch);
    }
    let spilled = image.as_ref().map_or(0, |i| i.checkpoint.spill.len());
    let (tier, unavailable) = match opts.spill.as_ref().map(SpillTier::open) {
        Some(Ok(tier)) => (Some(tier), None),
        Some(Err(e)) if spilled == 0 => (None, Some(e)),
        Some(Err(e)) => {
            return Err(CheckpointError::SpillUnavailable(format!(
                "checkpoint references {spilled} spilled record(s) but the spill tier cannot \
                 be opened: {e}"
            )))
        }
        None => (None, None),
    };
    let mut warnings = Vec::new();
    let (mut verifier, cursor, image_bytes) = match image {
        None => {
            let mut verifier = Verifier::new(opts.verifier);
            if let Some(tier) = tier {
                verifier.attach_spill(tier);
            }
            for &(k, val) in preload {
                verifier.preload(k, val);
            }
            (verifier, 0, 0)
        }
        Some(image) => {
            let mut verifier = Verifier::resume(&image.checkpoint, tier)?;
            if let Some(w) = image.warning {
                // A fallback to the previous image: degraded, but safe.
                verifier.ledger().0.push_note(w.clone());
                warnings.push(w);
            }
            (verifier, image.checkpoint.traces_ingested, image.bytes)
        }
    };
    if let Some(e) = unavailable {
        warnings.push(verifier.note_spill_unavailable(&e));
    }
    Ok(Opened {
        verifier,
        cursor,
        image_bytes,
        warnings,
    })
}

/// [`Verifier::process`], with the latched store fault as an `Err`: some
/// spilled state could not be read back, `trace` was refused (as every
/// later one will be) and there is no verdict to reach. Stop feeding.
pub fn feed<'a>(v: &'a mut Verifier, trace: &Trace) -> Result<(), &'a StoreError> {
    v.process(trace);
    v.store_fault().map_or(Ok(()), Err)
}

/// Writes `v`'s image, with `cursor` as its resume cursor, to `path`
/// ([`crate::checkpoint::Checkpoint::store`]) — after syncing the spill
/// tier, so the image never references unsynced records. Counted in
/// `leopard_checkpoints_written_total` only once written. Returns the byte
/// size of the image's JSON document.
pub fn save(v: &Verifier, cursor: u64, io: &dyn StoreIo, path: &Path) -> StoreResult<u64> {
    if let Some(fault) = v.store_fault() {
        return Err(StoreError::Poisoned(fault.to_string()));
    }
    if let Some(tier) = v.versions().spill_tier() {
        tier.sync()?;
    }
    let mut ckpt = v.checkpoint();
    ckpt.traces_ingested = cursor;
    let bytes = ckpt.store(io, path).map_err(StoreError::Io)?;
    obs::ctr(obs::Counter::CheckpointsWritten, 1);
    Ok(bytes)
}

/// [`Verifier::finish`] as a type: the verdict, or — when a spilled
/// record could not be faulted back in, during the run or while flushing
/// the deferred checks here — the store fault and no verdict.
pub fn finish(v: Verifier) -> StoreResult<VerifyOutcome> {
    v.finish().into_result()
}
