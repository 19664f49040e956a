//! The snapshot-ship bootstrap client: builds a replica-grade storage
//! engine from a remote frontend over TCP.
//!
//! A joining node sends [`Message::JoinRequest`] and receives the donor's
//! consistent checkpoint as a stream of checksummed
//! [`Message::SnapshotChunk`] frames closed by a [`Message::SnapshotDone`]
//! carrying the self-verifying manifest. The chunks are imported into a
//! fresh [`Engine`] (every chunk is verified against the manifest's CRCs),
//! and [`catch_up`] replays the commits certified after the snapshot
//! version, read in [`Message::FetchHistory`] pages, leaving the engine at
//! the donor cluster's recent past.
//!
//! The whole fetch is **restartable**: any failure — donor crash
//! mid-stream, torn frame, corrupted chunk (checksum mismatch at import),
//! codec drift — abandons the attempt and restarts from scratch against the
//! next donor address in the list. Snapshots are cheap to re-export (the
//! donor pays one pass over its tables), so retrying whole is simpler and
//! safer than resuming a half-trusted stream.

use crate::codec::{unexpected, Message, CATCH_UP_RECORDS};
use crate::conn::{ConnectPolicy, Connection};
use bargain_common::{Error, Result, Version};
use bargain_core::LogRecord;
use bargain_storage::{Engine, SnapshotManifest, DEFAULT_CHUNK_BYTES};

/// Tuning for a bootstrap fetch.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Requested chunk granularity in bytes (the server may clamp).
    pub chunk_bytes: u32,
    /// Whole-bootstrap attempts. Each failed attempt abandons its
    /// connection and restarts against the next donor address, so a donor
    /// that crashes mid-stream costs one attempt, not the bootstrap.
    pub max_attempts: u32,
    /// Per-attempt connection policy (connect retry/backoff, deadlines).
    pub policy: ConnectPolicy,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            chunk_bytes: DEFAULT_CHUNK_BYTES as u32,
            max_attempts: 3,
            policy: ConnectPolicy::default(),
        }
    }
}

/// A successfully bootstrapped engine and where it stands.
#[derive(Debug)]
pub struct Bootstrapped {
    /// The imported engine, already caught up through `version`.
    pub engine: Engine,
    /// The snapshot's consistent cut: state strictly at this version came
    /// over as chunks.
    pub snapshot_version: Version,
    /// The engine's version after replaying the catch-up feed.
    pub version: Version,
    /// Which donor address served the successful attempt.
    pub donor: String,
}

/// Fetches a snapshot plus catch-up feed from one of `donors` and builds a
/// replica-grade [`Engine`] from it.
///
/// Donor addresses are tried round-robin, one per attempt, up to
/// `config.max_attempts` total; the last error is returned if every attempt
/// fails. See the module docs for the restart-on-any-failure rationale.
pub fn bootstrap_engine(donors: &[String], config: &BootstrapConfig) -> Result<Bootstrapped> {
    if donors.is_empty() {
        return Err(Error::Protocol("bootstrap needs at least one donor".into()));
    }
    let attempts = config.max_attempts.max(1);
    let mut last = Error::Unavailable("bootstrap never attempted".into());
    for attempt in 0..attempts {
        let donor = &donors[attempt as usize % donors.len()];
        match fetch_once(donor, config) {
            Ok(done) => return Ok(done),
            Err(e) => last = e,
        }
    }
    Err(Error::Unavailable(format!(
        "bootstrap failed after {attempts} attempt(s) across {} donor(s): {last} (retry-after)",
        donors.len()
    )))
}

/// One bootstrap attempt against one donor: fresh connection, full
/// snapshot stream, import, catch-up.
fn fetch_once(donor: &str, config: &BootstrapConfig) -> Result<Bootstrapped> {
    let mut conn = Connection::connect(donor, &config.policy)?;
    let id = conn.next_request_id();
    conn.send_with_id(
        id,
        &Message::JoinRequest {
            chunk_bytes: config.chunk_bytes,
        },
    )?;

    // Collect the stream: chunks in index order, then the manifest.
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let manifest = loop {
        let (reply_id, msg) = conn.recv_tagged()?;
        if reply_id != id {
            continue; // a push or a stale reply from an abandoned request
        }
        match msg {
            Message::SnapshotChunk { index, data } => {
                if index as usize != chunks.len() {
                    return Err(Error::Protocol(format!(
                        "snapshot chunk {index} out of order (expected {})",
                        chunks.len()
                    )));
                }
                chunks.push(data);
            }
            Message::SnapshotDone { manifest } => break SnapshotManifest::decode(&manifest)?,
            Message::Err(e) => return Err(e),
            other => return Err(unexpected("a snapshot chunk", &other)),
        }
    };

    // Import verifies every chunk against the manifest's checksums and the
    // manifest against its own trailing CRC: a torn or corrupted transfer
    // dies here and the caller retries against another donor.
    let snapshot_version = manifest.version;
    let mut engine = Engine::import_snapshot(&manifest, &chunks)?;

    // The commits certified after the snapshot's cut. (Admission-grade
    // freshness is the caller's loop — it can call `catch_up` again until
    // the lag is small.)
    catch_up(&mut conn, &mut engine)?;

    Ok(Bootstrapped {
        snapshot_version,
        version: engine.version(),
        engine,
        donor: donor.to_owned(),
    })
}

/// Replays the catch-up feed against an already-bootstrapped engine: the
/// certified records above its version, read with [`fetch_history`].
/// Returns how many records were applied; callers poll this until the
/// returned count (or their lag estimate) is inside the admission bound.
pub fn catch_up(conn: &mut Connection, engine: &mut Engine) -> Result<usize> {
    let records = fetch_history(conn, engine.version())?;
    for rec in &records {
        engine.apply_refresh(&rec.writeset, rec.commit_version)?;
    }
    Ok(records.len())
}

/// Reads the certified records above `after`, the oldest first, from a
/// frontend or a certifier service alike: [`Message::FetchHistory`] pages
/// from the last record read until one comes back shorter than
/// [`CATCH_UP_RECORDS`]. The one client of the history exchange: the
/// certifier link's start and its resync after a reconnect read through it
/// too.
pub fn fetch_history(conn: &mut Connection, mut after: Version) -> Result<Vec<LogRecord>> {
    let mut records = Vec::new();
    loop {
        let page = match conn.call(&Message::FetchHistory { after })? {
            Message::History { records } => records,
            other => return Err(unexpected("History", &other)),
        };
        let more = page.len() >= CATCH_UP_RECORDS;
        after = page.last().map_or(after, |rec| rec.commit_version);
        records.extend(page);
        if !more {
            return Ok(records);
        }
    }
}
