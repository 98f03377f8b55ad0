//! Versioned, bitwise-exact checkpoint/restart.
//!
//! A checkpoint captures the complete per-rank solver state needed to
//! resume a run **bitwise identically** to one that was never
//! interrupted: the solution fields of every mesh, the step cursor, the
//! per-equation final residuals, the fault-injector occurrence counters
//! (so seeded fault windows keep advancing where they left off), and the
//! AMG plan-store metadata. Mesh *geometry* is deliberately not
//! serialized — rotor motion is a pure function of the step count, so
//! the restart path replays the same per-step rotations on the freshly
//! generated mesh, reproducing coordinates, edge area vectors, and
//! boundary normals bit for bit.
//!
//! # File format (version 1)
//!
//! One file per rank per generation, `ckpt-g<gen>-r<rank>.bin`:
//!
//! ```text
//! [ magic "EXWCKPT1" (8) | version u32 | rank u32 | size u32
//!   | generation u64 | step u64 | payload_type_id u32
//!   | payload_len u64 | payload_fnv64 u64 | header_fnv64 u64 ]
//! [ payload: SolverCheckpoint via the parcomm wire codec ]
//! ```
//!
//! All integers little-endian; floats travel as raw IEEE-754 bit
//! patterns through [`parcomm::Message`], the same codec the socket
//! transport uses — NaN payloads, signed zeros, and subnormals
//! round-trip exactly. The header carries an FNV-1a-64 checksum over its
//! own bytes and one over the payload; a truncated or bit-flipped file
//! is a typed [`CheckpointError`], never a silent partial restore.
//! Files are written to a `.tmp` sibling, fsynced, atomically renamed,
//! and the parent directory is fsynced after the rename — so neither a
//! process crash mid-write nor a whole-machine crash right after a
//! publish leaves a plausible-looking corpse or a manifest naming rank
//! files whose directory entries never became durable.
//!
//! # Manifest / generation protocol
//!
//! A generation is *complete* only when every rank's file is on disk.
//! After each rank writes its file the cohort barriers, then rank 0
//! rewrites `MANIFEST` (tmp+rename) naming the new generation. Readers
//! trust only the manifest: a crash between "some ranks wrote gen g" and
//! "manifest names g" leaves the previous generation as the newest
//! complete one, which is exactly what a restart must use. Rank 0 prunes
//! generations older than the newest [`KEEP_GENERATIONS`] after each
//! publish.

use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parcomm::{Message, WireCursor};

/// Newest complete generations kept on disk (older ones are pruned).
pub const KEEP_GENERATIONS: usize = 2;

const MAGIC: &[u8; 8] = b"EXWCKPT1";
const VERSION: u32 = 1;
/// Fixed header length in bytes (see module docs).
const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 8 + 8 + 4 + 8 + 8 + 8;
const MANIFEST_NAME: &str = "MANIFEST";

/// 64-bit FNV-1a, the integrity hash of the checkpoint format. Stable
/// across platforms, dependency-free, and plenty for detecting the
/// torn-write / bit-rot corruption this guards against (not an
/// adversarial MAC).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a checkpoint could not be written, read, or applied. Every
/// corruption mode is a distinct typed failure so callers (and the
/// proptest suite) can pin that nothing restores partially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem-level failure (open/read/write/rename).
    Io(String),
    /// File ends before the advertised header or payload does.
    Truncated { wanted: usize, got: usize },
    /// Structural damage: bad magic, checksum mismatch, undecodable
    /// payload, or a payload inconsistent with the live solver shape.
    Corrupt(String),
    /// A future (or garbage) format version.
    VersionMismatch { found: u32, expected: u32 },
    /// The file belongs to a different rank/cohort shape than the
    /// restore requested.
    CohortMismatch { detail: String },
    /// The armed fault plan does not match the checkpointed counters.
    PlanMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Truncated { wanted, got } => {
                write!(f, "checkpoint truncated: wanted {wanted} bytes, file has {got}")
            }
            CheckpointError::Corrupt(d) => write!(f, "checkpoint corrupt: {d}"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} (this build reads {expected})")
            }
            CheckpointError::CohortMismatch { detail } => {
                write!(f, "checkpoint cohort mismatch: {detail}")
            }
            CheckpointError::PlanMismatch(d) => write!(f, "fault-plan mismatch: {d}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Solution fields of one mesh, flattened to plain `f64` streams
/// (velocity components interleaved x,y,z per node).
#[derive(Clone, Debug, PartialEq)]
pub struct MeshCheckpoint {
    pub vel: Vec<f64>,
    pub vel_old: Vec<f64>,
    pub p: Vec<f64>,
    pub dp: Vec<f64>,
    pub nut: Vec<f64>,
    pub nut_old: Vec<f64>,
}

impl Message for MeshCheckpoint {
    fn wire_bytes(&self) -> usize {
        self.vel.wire_bytes()
            + self.vel_old.wire_bytes()
            + self.p.wire_bytes()
            + self.dp.wire_bytes()
            + self.nut.wire_bytes()
            + self.nut_old.wire_bytes()
    }
    fn wire_sig(out: &mut String) {
        out.push_str("mesh_ckpt{");
        for _ in 0..6 {
            Vec::<f64>::wire_sig(out);
            out.push(',');
        }
        out.push('}');
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.vel.encode(out);
        self.vel_old.encode(out);
        self.p.encode(out);
        self.dp.encode(out);
        self.nut.encode(out);
        self.nut_old.encode(out);
    }
    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, parcomm::WireError> {
        Ok(MeshCheckpoint {
            vel: Vec::decode(cur)?,
            vel_old: Vec::decode(cur)?,
            p: Vec::decode(cur)?,
            dp: Vec::decode(cur)?,
            nut: Vec::decode(cur)?,
            nut_old: Vec::decode(cur)?,
        })
    }
}

/// Complete per-rank solver state at a step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverCheckpoint {
    /// Completed steps at capture time (== the generation id).
    pub step: u64,
    /// Solution fields per mesh, in mesh order.
    pub meshes: Vec<MeshCheckpoint>,
    /// Final GMRES relative residual per equation (UTF-8 name bytes).
    pub final_rels: Vec<(Vec<u8>, f64)>,
    /// Fault-injector `(hits, fired)` occurrence counters in spec order
    /// (see [`parcomm::Rank::fault_counters`]); empty when no plan is armed.
    pub fault_counters: Vec<(u64, u64)>,
    /// AMG plan-store metadata: `(mesh index, recorded plan count)` per
    /// mesh with a reuse store. The Picard driver keeps no such store
    /// (it caches whole hierarchies, which a restart rebuilds
    /// bit-identically) and writes this empty; the field stays part of
    /// the checkpoint format.
    pub amg_plans: Vec<(u64, u64)>,
}

impl Message for SolverCheckpoint {
    fn wire_bytes(&self) -> usize {
        8 + self.meshes.wire_bytes()
            + self.final_rels.wire_bytes()
            + self.fault_counters.wire_bytes()
            + self.amg_plans.wire_bytes()
    }
    fn wire_sig(out: &mut String) {
        out.push_str("solver_ckpt{u64,");
        Vec::<MeshCheckpoint>::wire_sig(out);
        out.push(',');
        Vec::<(Vec<u8>, f64)>::wire_sig(out);
        out.push(',');
        Vec::<(u64, u64)>::wire_sig(out);
        out.push(',');
        Vec::<(u64, u64)>::wire_sig(out);
        out.push('}');
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.step.encode(out);
        self.meshes.encode(out);
        self.final_rels.encode(out);
        self.fault_counters.encode(out);
        self.amg_plans.encode(out);
    }
    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, parcomm::WireError> {
        Ok(SolverCheckpoint {
            step: u64::decode(cur)?,
            meshes: Vec::decode(cur)?,
            final_rels: Vec::decode(cur)?,
            fault_counters: Vec::decode(cur)?,
            amg_plans: Vec::decode(cur)?,
        })
    }
}

/// Per-rank checkpoint file name for a generation.
pub fn rank_file(dir: &Path, generation: u64, rank: usize) -> PathBuf {
    dir.join(format!("ckpt-g{generation}-r{rank}.bin"))
}

fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename lives in the directory, not the file: without a
    // directory fsync a whole-machine crash could revert it, leaving a
    // manifest that names rank files whose directory entries vanished.
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Serialize `ck` for `rank` of a `size`-rank cohort and atomically
/// write it under `dir` (created if absent). Returns the file size.
pub fn write_rank(
    dir: &Path,
    rank: usize,
    size: usize,
    generation: u64,
    ck: &SolverCheckpoint,
) -> Result<u64, CheckpointError> {
    fs::create_dir_all(dir)?;
    let payload = parcomm::encode_payload(ck);
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(rank as u32).to_le_bytes());
    bytes.extend_from_slice(&(size as u32).to_le_bytes());
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes.extend_from_slice(&ck.step.to_le_bytes());
    bytes.extend_from_slice(&<SolverCheckpoint as Message>::wire_id().to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
    let header_sum = fnv64(&bytes);
    bytes.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(bytes.len(), HEADER_BYTES);
    bytes.extend_from_slice(&payload);
    atomic_write(&rank_file(dir, generation, rank), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read and fully validate one rank's checkpoint file: magic, version,
/// header checksum, rank/size/generation identity, payload type id,
/// length, and payload checksum — then decode. Any mismatch is a typed
/// error and nothing is returned.
pub fn read_rank(
    dir: &Path,
    rank: usize,
    size: usize,
    generation: u64,
) -> Result<SolverCheckpoint, CheckpointError> {
    read_file(&rank_file(dir, generation, rank), Some((rank, size, generation)))
}

/// [`read_rank`] on an explicit path; `expect` optionally pins the
/// (rank, size, generation) identity the header must carry.
pub fn read_file(
    path: &Path,
    expect: Option<(usize, usize, u64)>,
) -> Result<SolverCheckpoint, CheckpointError> {
    let mut f = fs::File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_BYTES {
        return Err(CheckpointError::Truncated { wanted: HEADER_BYTES, got: bytes.len() });
    }
    let header = &bytes[..HEADER_BYTES];
    if &header[..8] != MAGIC {
        return Err(CheckpointError::Corrupt(format!(
            "bad magic {:02x?} (not a checkpoint file)",
            &header[..8]
        )));
    }
    let u32_at = |o: usize| u32::from_le_bytes(std::array::from_fn(|i| header[o + i]));
    let u64_at = |o: usize| u64::from_le_bytes(std::array::from_fn(|i| header[o + i]));
    let version = u32_at(8);
    if version != VERSION {
        return Err(CheckpointError::VersionMismatch { found: version, expected: VERSION });
    }
    let stored_header_sum = u64_at(HEADER_BYTES - 8);
    if fnv64(&header[..HEADER_BYTES - 8]) != stored_header_sum {
        return Err(CheckpointError::Corrupt("header checksum mismatch".into()));
    }
    let (rank, size) = (u32_at(12) as usize, u32_at(16) as usize);
    let generation = u64_at(20);
    let step = u64_at(28);
    if let Some((want_rank, want_size, want_gen)) = expect {
        if rank != want_rank || size != want_size || generation != want_gen {
            return Err(CheckpointError::CohortMismatch {
                detail: format!(
                    "file is rank {rank}/{size} generation {generation}, \
                     wanted rank {want_rank}/{want_size} generation {want_gen}"
                ),
            });
        }
    }
    let type_id = u32_at(36);
    if type_id != <SolverCheckpoint as Message>::wire_id() {
        return Err(CheckpointError::Corrupt(format!(
            "payload type id {type_id:#010x} is not a solver checkpoint"
        )));
    }
    let payload_len = u64_at(40) as usize;
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() != payload_len {
        return Err(CheckpointError::Truncated {
            wanted: HEADER_BYTES + payload_len,
            got: bytes.len(),
        });
    }
    if fnv64(payload) != u64_at(48) {
        return Err(CheckpointError::Corrupt("payload checksum mismatch".into()));
    }
    let ck: SolverCheckpoint = parcomm::decode_payload(payload)
        .map_err(|e| CheckpointError::Corrupt(format!("payload decode: {e}")))?;
    if ck.step != step {
        return Err(CheckpointError::Corrupt(format!(
            "header step {step} disagrees with payload step {}",
            ck.step
        )));
    }
    Ok(ck)
}

/// The cohort manifest: the rank count and every *complete* generation,
/// oldest first. Text, one `generation <g>` line each, so an operator
/// can read it with `cat`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Manifest {
    pub ranks: usize,
    pub generations: Vec<u64>,
}

impl Manifest {
    /// Newest complete generation, if any.
    pub fn latest(&self) -> Option<u64> {
        self.generations.last().copied()
    }

    fn render(&self) -> String {
        let mut s = format!("exawind-checkpoint-manifest v1\nranks {}\n", self.ranks);
        for g in &self.generations {
            s.push_str(&format!("generation {g}\n"));
        }
        s
    }

    fn parse(s: &str) -> Result<Manifest, CheckpointError> {
        let mut lines = s.lines();
        match lines.next() {
            Some("exawind-checkpoint-manifest v1") => {}
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "manifest header {other:?} unrecognized"
                )))
            }
        }
        let ranks = match lines.next().and_then(|l| l.strip_prefix("ranks ")) {
            Some(n) => n.trim().parse::<usize>().map_err(|_| {
                CheckpointError::Corrupt(format!("manifest ranks line unparseable: {n:?}"))
            })?,
            None => return Err(CheckpointError::Corrupt("manifest missing ranks line".into())),
        };
        let mut generations = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let g = line
                .strip_prefix("generation ")
                .and_then(|g| g.trim().parse::<u64>().ok())
                .ok_or_else(|| {
                    CheckpointError::Corrupt(format!("manifest line unparseable: {line:?}"))
                })?;
            generations.push(g);
        }
        if generations.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Corrupt(
                "manifest generations not strictly increasing".into(),
            ));
        }
        Ok(Manifest { ranks, generations })
    }
}

/// Read the manifest under `dir`. `Ok(None)` when no manifest exists
/// (nothing ever completed) — distinct from a *corrupt* manifest, which
/// is an error.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, CheckpointError> {
    let path = dir.join(MANIFEST_NAME);
    let s = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    Manifest::parse(&s).map(Some)
}

/// Publish `generation` as complete (called by rank 0 *after* the
/// cohort barriered on all rank files being written): append it to the
/// manifest, atomically rewrite, then prune generations older than the
/// newest [`KEEP_GENERATIONS`] along with their rank files.
pub fn publish_generation(
    dir: &Path,
    ranks: usize,
    generation: u64,
) -> Result<Manifest, CheckpointError> {
    let mut m = read_manifest(dir)?.unwrap_or(Manifest { ranks, generations: Vec::new() });
    if m.ranks != ranks {
        return Err(CheckpointError::CohortMismatch {
            detail: format!("manifest is for {} ranks, publishing for {ranks}", m.ranks),
        });
    }
    if m.latest().is_some_and(|g| g >= generation) {
        return Err(CheckpointError::Corrupt(format!(
            "generation {generation} not newer than manifest latest {:?}",
            m.latest()
        )));
    }
    m.generations.push(generation);
    let pruned: Vec<u64> = if m.generations.len() > KEEP_GENERATIONS {
        m.generations.drain(..m.generations.len() - KEEP_GENERATIONS).collect()
    } else {
        Vec::new()
    };
    atomic_write(&dir.join(MANIFEST_NAME), m.render().as_bytes())?;
    // Prune *after* the manifest stops naming the old generations; a
    // crash between the two leaves unreferenced files, never a manifest
    // naming missing ones.
    for g in pruned {
        for r in 0..ranks {
            let _ = fs::remove_file(rank_file(dir, g, r));
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exawind-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(step: u64) -> SolverCheckpoint {
        SolverCheckpoint {
            step,
            meshes: vec![MeshCheckpoint {
                vel: vec![1.0, -0.0, f64::NAN],
                vel_old: vec![2.0, 3.0, 4.0],
                p: vec![0.5],
                dp: vec![f64::MIN_POSITIVE],
                nut: vec![1e-4],
                nut_old: vec![1e-4],
            }],
            final_rels: vec![(b"continuity".to_vec(), 1e-7)],
            fault_counters: vec![(3, 1)],
            amg_plans: vec![(0, 12)],
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let dir = tmpdir("roundtrip");
        let ck = sample(4);
        let bytes = write_rank(&dir, 1, 2, 4, &ck).unwrap();
        assert!(bytes > HEADER_BYTES as u64);
        let back = read_rank(&dir, 1, 2, 4).unwrap();
        // NaN payload: compare bits, not values.
        assert_eq!(back.meshes[0].vel[2].to_bits(), ck.meshes[0].vel[2].to_bits());
        assert_eq!(back.meshes[0].vel[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.step, ck.step);
        assert_eq!(back.final_rels, ck.final_rels);
        assert_eq!(back.fault_counters, ck.fault_counters);
        assert_eq!(back.amg_plans, ck.amg_plans);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identity_mismatches_are_typed() {
        let dir = tmpdir("identity");
        write_rank(&dir, 0, 2, 4, &sample(4)).unwrap();
        // Wrong rank under the expected identity: file not found is Io.
        assert!(matches!(read_rank(&dir, 1, 2, 4), Err(CheckpointError::Io(_))));
        // Right file, wrong expected identity: cohort mismatch.
        let path = rank_file(&dir, 4, 0);
        assert!(matches!(
            read_file(&path, Some((0, 4, 4))),
            Err(CheckpointError::CohortMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_and_bitflips_are_typed_errors() {
        let dir = tmpdir("corrupt");
        write_rank(&dir, 0, 1, 2, &sample(2)).unwrap();
        let path = rank_file(&dir, 2, 0);
        let good = fs::read(&path).unwrap();
        // Truncated mid-payload.
        fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            read_file(&path, None),
            Err(CheckpointError::Truncated { .. })
        ));
        // Truncated mid-header.
        fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            read_file(&path, None),
            Err(CheckpointError::Truncated { .. })
        ));
        // Every single-bit flip anywhere in the file must be caught.
        for byte in [9, HEADER_BYTES - 9, HEADER_BYTES + 3, good.len() - 1] {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            let err = read_file(&path, None).expect_err("bit flip accepted");
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt(_) | CheckpointError::VersionMismatch { .. }
                ),
                "flip at {byte} gave {err:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_names_only_published_generations() {
        let dir = tmpdir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        write_rank(&dir, 0, 1, 2, &sample(2)).unwrap();
        publish_generation(&dir, 1, 2).unwrap();
        write_rank(&dir, 0, 1, 4, &sample(4)).unwrap();
        publish_generation(&dir, 1, 4).unwrap();
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(m.generations, vec![2, 4]);
        assert_eq!(m.latest(), Some(4));
        // Publishing an older generation is refused.
        assert!(publish_generation(&dir, 1, 3).is_err());
        // A third generation prunes the first's files.
        write_rank(&dir, 0, 1, 6, &sample(6)).unwrap();
        publish_generation(&dir, 1, 6).unwrap();
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(m.generations, vec![4, 6]);
        assert!(!rank_file(&dir, 2, 0).exists(), "pruned generation still on disk");
        assert!(rank_file(&dir, 4, 0).exists());
        // Wrong cohort size is refused.
        assert!(matches!(
            publish_generation(&dir, 3, 8),
            Err(CheckpointError::CohortMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_a_cold_start() {
        let dir = tmpdir("badmanifest");
        fs::write(dir.join(MANIFEST_NAME), "exawind-checkpoint-manifest v1\nranks 2\ngeneration 4\ngeneration 2\n").unwrap();
        assert!(read_manifest(&dir).is_err(), "non-monotonic generations accepted");
        fs::write(dir.join(MANIFEST_NAME), "something else\n").unwrap();
        assert!(read_manifest(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
