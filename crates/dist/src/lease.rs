//! Lease files: coordinator-free, crash-healing claims.
//!
//! Every claimable unit of work — a **workload band**
//! ([`band_lease_id`], the worker default: all pending cells sharing a
//! trace, replayed in one pass) or a single grid cell — can be claimed
//! by at most one worker at a time. A claim is a **lease file** —
//! `leases/<id>.lease` under the shared campaign directory — created
//! atomically, carrying the claiming worker's identity, an epoch, and a
//! TTL:
//!
//! ```text
//! {"ccsim_lease":1,"cell":"band:bfs.kron","worker":"host-42",
//!  "epoch":1,"ttl_secs":300}
//! ```
//!
//! # Atomicity
//!
//! Claims never write the lease path directly. The worker writes a
//! uniquely-named temporary file and **hard-links** it to the lease path:
//! `link(2)` fails with `EEXIST` when the path already exists, on local
//! filesystems and on NFS alike (it is the classic NFS-safe lock
//! primitive — unlike `O_EXCL`-create, which older NFS implementations
//! did not make atomic). Exactly one of N racing workers wins; the rest
//! observe the winner's lease.
//!
//! Renewals ([`LeaseGuard::renew`]) replace the file content via
//! write-temp + `rename(2)` — also atomic — refreshing the file mtime
//! that staleness is judged by.
//!
//! # Crash healing
//!
//! A worker that dies stops renewing. Once a lease's mtime is older than
//! its recorded TTL it is **stale**: any worker may remove it and race a
//! fresh claim (remove is idempotent; the subsequent hard-link race again
//! has exactly one winner). The new lease carries `epoch + 1`, making
//! reclaims visible in `campaign watch` output and logs. Staleness
//! compares the *fileserver* mtime against the local clock, so workers
//! on hosts with skewed clocks disagree only by their skew — keep TTLs
//! an order of magnitude above worst-case skew plus cell runtime (see
//! the "Distributed campaigns" runbook in PAPER.md).
//!
//! Because simulation results are a deterministic function of the spec,
//! the one harmful race left — a live-but-slow holder losing its lease
//! and its claimed cells running twice — produces *identical* results,
//! which the journal merge accepts (and counts) rather than corrupt
//! anything.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use ccsim_campaign::spec::fnv1a64;
use ccsim_campaign::Json;

/// Lease file format version.
const LEASE_VERSION: u64 = 1;

/// The lease id of a **workload band** — all pending cells of one
/// workload, claimed together so the holder can replay the trace once
/// for the whole band ([`ccsim_campaign::AcquiredTrace::simulate_cells`]).
///
pub fn band_lease_id(workload: &str) -> String {
    format!("band:{workload}")
}

/// The workload a band lease id claims, or `None` for any other id.
pub fn band_workload(id: &str) -> Option<&str> {
    id.strip_prefix("band:")
}

/// A parsed lease file, plus the derived age/staleness at scan time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The claimed lease id: a workload band (`band:<workload>`).
    pub cell: String,
    /// Claiming worker id.
    pub worker: String,
    /// Claim epoch: 1 for a fresh claim, bumped on every reclaim.
    pub epoch: u64,
    /// TTL the claimer promised to renew within.
    pub ttl_secs: u64,
    /// Seconds since the last write (claim or renewal).
    pub age_secs: u64,
    /// `age_secs > ttl_secs`: the holder is presumed dead.
    pub stale: bool,
}

/// The outcome of a claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// This worker now holds the cell; drop or release the guard to free
    /// it.
    Acquired(LeaseGuard),
    /// Another worker holds a live lease on the cell.
    Held(Lease),
}

/// The `leases/` directory of one shared campaign directory.
#[derive(Debug)]
pub struct LeaseDir {
    root: PathBuf,
}

impl LeaseDir {
    /// Opens (creating if needed) the lease directory at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<LeaseDir> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(LeaseDir { root })
    }

    /// The lease directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The lease-file path of `cell`: a sanitized, length-bounded prefix
    /// for humans plus the FNV-1a hash of the full id for uniqueness
    /// (cell ids contain `|` and, for `trace:` selectors, arbitrary
    /// paths).
    pub fn path_for(&self, cell: &str) -> PathBuf {
        let sanitized: String = cell
            .chars()
            .take(80)
            .map(|c| if c.is_ascii_alphanumeric() || ".-_".contains(c) { c } else { '_' })
            .collect();
        self.root.join(format!("{sanitized}-{:016x}.lease", fnv1a64(cell.as_bytes())))
    }

    /// Attempts to claim `cell` for `worker` with the given TTL.
    ///
    /// A live foreign lease yields [`Claim::Held`]. A stale lease is
    /// removed and re-raced; the winning claim carries the dead lease's
    /// `epoch + 1`.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures other than losing the claim
    /// race.
    pub fn claim(&self, cell: &str, worker: &str, ttl: Duration) -> Result<Claim, String> {
        let path = self.path_for(cell);
        let mut epoch = 1u64;
        if let Some(existing) = read_lease(&path) {
            if !existing.stale {
                return Ok(Claim::Held(existing));
            }
            // Stale: heal it. Re-read immediately before removing — a
            // peer may have reclaimed (removed + re-linked a fresh
            // lease) since our first read, and removing *that* would
            // strip a live holder. The remaining read→remove window is
            // two adjacent syscalls; a peer lease lost there is caught
            // by its own renew()/release() ownership checks, and the
            // doubly-run cell is deterministic, so merges stay clean.
            epoch = existing.epoch + 1;
            match read_lease(&path) {
                Some(l) if !l.stale => return Ok(Claim::Held(l)),
                _ => {}
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("removing stale lease {}: {e}", path.display())),
            }
        }
        let guard = LeaseGuard {
            dir: self.root.clone(),
            path: path.clone(),
            cell: cell.to_owned(),
            worker: worker.to_owned(),
            // A peer's lease file and the command line choose these two,
            // and `content` writes them back through `Json::int`.
            epoch: epoch.min(Json::MAX_INT),
            ttl_secs: ttl.as_secs().min(Json::MAX_INT),
            released: false,
        };
        let tmp = guard.write_tmp().map_err(|e| format!("writing lease claim: {e}"))?;
        let linked = std::fs::hard_link(&tmp, &path);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => Ok(Claim::Acquired(guard)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // Lost the race; report the winner (or a placeholder if
                // its write is still in flight).
                let held = read_lease(&path).unwrap_or(Lease {
                    cell: cell.to_owned(),
                    worker: "?".to_owned(),
                    epoch,
                    ttl_secs: ttl.as_secs(),
                    age_secs: 0,
                    stale: false,
                });
                Ok(Claim::Held(held))
            }
            Err(e) => Err(format!("claiming lease {}: {e}", path.display())),
        }
    }

    /// All leases currently on disk, sorted by cell id — live and stale
    /// alike. Unreadable/torn files are skipped (a claim or renewal is in
    /// flight; the next scan sees them).
    pub fn scan(&self) -> Vec<Lease> {
        let mut leases: Vec<Lease> = match std::fs::read_dir(&self.root) {
            Err(_) => Vec::new(),
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "lease"))
                .filter_map(|p| read_lease(&p))
                .collect(),
        };
        leases.sort_by(|a, b| a.cell.cmp(&b.cell));
        leases
    }
}

/// Parses the lease file at `path`, deriving age and staleness from its
/// mtime. `None` for missing, torn or foreign files.
fn read_lease(path: &Path) -> Option<Lease> {
    let text = std::fs::read_to_string(path).ok()?;
    let meta = std::fs::metadata(path).ok()?;
    let age =
        SystemTime::now().duration_since(meta.modified().ok()?).unwrap_or(Duration::ZERO).as_secs();
    let v = Json::parse(text.trim_end()).ok()?;
    if v.get("ccsim_lease").and_then(Json::as_u64) != Some(LEASE_VERSION) {
        return None;
    }
    let ttl_secs = v.get("ttl_secs")?.as_u64()?;
    Some(Lease {
        cell: v.get("cell")?.as_str()?.to_owned(),
        worker: v.get("worker")?.as_str()?.to_owned(),
        epoch: v.get("epoch")?.as_u64()?,
        ttl_secs,
        age_secs: age,
        stale: age > ttl_secs,
    })
}

/// An acquired lease. Dropping (or [`LeaseGuard::release`]-ing) removes
/// the lease file; [`LeaseGuard::renew`] refreshes its mtime so long
/// batches can heartbeat past the TTL.
#[derive(Debug)]
pub struct LeaseGuard {
    dir: PathBuf,
    path: PathBuf,
    cell: String,
    worker: String,
    epoch: u64,
    ttl_secs: u64,
    released: bool,
}

impl LeaseGuard {
    /// The claimed cell id.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// The claim epoch (> 1 means the cell was reclaimed from a stale
    /// holder).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lease content as a JSON line.
    fn content(&self) -> String {
        Json::obj(vec![
            ("ccsim_lease", Json::int(LEASE_VERSION)),
            ("cell", Json::str(&self.cell)),
            ("worker", Json::str(&self.worker)),
            ("epoch", Json::int(self.epoch)),
            ("ttl_secs", Json::int(self.ttl_secs)),
        ])
        .to_string()
    }

    /// Writes the lease content to a uniquely-named temporary file in the
    /// lease directory and returns its path.
    fn write_tmp(&self) -> std::io::Result<PathBuf> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".claim-{}-{}-{}.tmp",
            self.worker,
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::write(&tmp, format!("{}\n", self.content()))?;
        Ok(tmp)
    }

    /// `true` while the lease file still carries this guard's identity.
    /// `false` means the lease was stolen (a peer judged it stale and
    /// reclaimed it) — the guard must no longer rewrite or remove the
    /// path, or it would strip the new holder.
    fn still_owned(&self) -> bool {
        match read_lease(&self.path) {
            Some(l) => l.worker == self.worker && l.epoch == self.epoch && l.cell == self.cell,
            // Missing or torn: don't clobber whatever is happening.
            None => false,
        }
    }

    /// Heartbeat: atomically rewrites the lease file (write-temp +
    /// rename), refreshing the mtime staleness is judged by. Callable
    /// from a renewal thread while the cell simulates (`&self`). A
    /// lease that was meanwhile stolen by a reclaiming peer is left
    /// untouched (renewing it would clobber the new holder) and
    /// reported as an error.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; reports a stolen lease.
    pub fn renew(&self) -> std::io::Result<()> {
        if !self.still_owned() {
            return Err(std::io::Error::other("lease no longer owned by this guard"));
        }
        let tmp = self.write_tmp()?;
        let renamed = std::fs::rename(&tmp, &self.path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Releases the lease, removing its file — only while it is still
    /// ours (a stolen lease belongs to its new holder now).
    pub fn release(mut self) {
        self.released = true;
        if self.still_owned() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        if !self.released && self.still_owned() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_leases(tag: &str) -> LeaseDir {
        let dir = std::env::temp_dir().join(format!("ccsim_lease_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LeaseDir::open(dir).unwrap()
    }

    const TTL: Duration = Duration::from_secs(300);

    /// Backdates a lease file far past its TTL, simulating a crashed
    /// holder.
    fn expire(dir: &LeaseDir, cell: &str) {
        let f = std::fs::File::options().write(true).open(dir.path_for(cell)).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(100_000)).unwrap();
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let dir = temp_leases("exclusive");
        let g = match dir.claim("w|c|lru", "alpha", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(h) => panic!("fresh cell held by {h:?}"),
        };
        assert_eq!(g.epoch(), 1);
        // A second worker loses the race and learns the holder.
        match dir.claim("w|c|lru", "beta", TTL).unwrap() {
            Claim::Acquired(_) => panic!("double claim"),
            Claim::Held(h) => {
                assert_eq!(h.worker, "alpha");
                assert!(!h.stale);
            }
        }
        // A different cell is independent.
        assert!(matches!(dir.claim("w|c|srrip", "beta", TTL).unwrap(), Claim::Acquired(_)));
        g.release();
        assert!(matches!(dir.claim("w|c|lru", "beta", TTL).unwrap(), Claim::Acquired(_)));
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn dropping_the_guard_releases_like_a_crash_cleanup() {
        let dir = temp_leases("drop");
        {
            let _g = match dir.claim("w|c|lru", "alpha", TTL).unwrap() {
                Claim::Acquired(g) => g,
                Claim::Held(_) => unreachable!(),
            };
        }
        assert!(matches!(dir.claim("w|c|lru", "beta", TTL).unwrap(), Claim::Acquired(_)));
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn stale_lease_is_reclaimed_with_a_bumped_epoch() {
        let dir = temp_leases("stale");
        let g = match dir.claim("w|c|lru", "dead", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(_) => unreachable!(),
        };
        std::mem::forget(g); // the holder "crashes": no release, no renewal
        expire(&dir, "w|c|lru");
        let scanned = dir.scan();
        assert_eq!(scanned.len(), 1);
        assert!(scanned[0].stale);
        assert_eq!(scanned[0].worker, "dead");

        match dir.claim("w|c|lru", "healer", TTL).unwrap() {
            Claim::Acquired(g) => assert_eq!(g.epoch(), 2, "reclaim bumps the epoch"),
            Claim::Held(h) => panic!("stale lease not reclaimed: {h:?}"),
        }
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn a_planted_lease_at_the_integer_limit_is_reclaimed_without_panicking() {
        let dir = temp_leases("limit");
        let planted = format!(
            r#"{{"ccsim_lease":1,"cell":"w|c|lru","worker":"dead","epoch":{},"ttl_secs":300}}"#,
            Json::MAX_INT
        );
        std::fs::write(dir.path_for("w|c|lru"), planted).unwrap();
        expire(&dir, "w|c|lru");
        // The bumped epoch and an over-long `--ttl-secs` both clamp.
        let g = match dir.claim("w|c|lru", "healer", Duration::from_secs(u64::MAX)).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(h) => panic!("stale lease not reclaimed: {h:?}"),
        };
        g.renew().unwrap();
        let on_disk = &dir.scan()[0];
        assert_eq!((on_disk.worker.as_str(), on_disk.epoch), ("healer", Json::MAX_INT));
        assert_eq!((g.epoch(), on_disk.ttl_secs), (Json::MAX_INT, Json::MAX_INT));
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn renewal_unstales_a_lease() {
        let dir = temp_leases("renew");
        let g = match dir.claim("w|c|lru", "alpha", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(_) => unreachable!(),
        };
        expire(&dir, "w|c|lru");
        assert!(dir.scan()[0].stale);
        g.renew().unwrap();
        let l = &dir.scan()[0];
        assert!(!l.stale, "renewal refreshes the mtime");
        assert_eq!(l.epoch, 1, "renewal keeps the epoch");
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn a_stolen_lease_is_not_renewed_or_released_by_the_old_guard() {
        let dir = temp_leases("stolen");
        let victim = match dir.claim("w|c|lru", "slow", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(_) => unreachable!(),
        };
        // The victim stalls past its TTL; a peer reclaims.
        expire(&dir, "w|c|lru");
        let thief = match dir.claim("w|c|lru", "thief", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(h) => panic!("stale lease not reclaimed: {h:?}"),
        };
        assert_eq!(thief.epoch(), 2);

        // The slow victim wakes up: its renew must refuse (rewriting
        // would clobber the thief), and releasing/dropping its guard
        // must leave the thief's live lease in place.
        assert!(victim.renew().is_err(), "renewing a stolen lease must fail");
        victim.release();
        let left = dir.scan();
        assert_eq!(left.len(), 1, "thief's lease survives the victim's release");
        assert_eq!(left[0].worker, "thief");
        assert_eq!(left[0].epoch, 2);
        thief.release();
        assert!(dir.scan().is_empty());
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn scan_maps_a_sanitized_path_back_to_the_full_id() {
        let dir = temp_leases("scan");
        let selector = "band:trace:/data/some path/t.champsim";
        let _g = match dir.claim(selector, "alpha", TTL).unwrap() {
            Claim::Acquired(g) => g,
            Claim::Held(_) => unreachable!(),
        };
        let scanned = dir.scan();
        assert_eq!(scanned.len(), 1);
        assert_eq!((scanned[0].cell.as_str(), scanned[0].worker.as_str()), (selector, "alpha"));
        assert!(!scanned[0].stale);
        std::fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn band_ids_round_trip() {
        assert_eq!(band_lease_id("xsbench.small"), "band:xsbench.small");
        assert_eq!(band_workload("band:xsbench.small"), Some("xsbench.small"));
        assert_eq!(band_workload("xsbench.small|llc_x1|lru"), None);
    }

    #[test]
    fn concurrent_claims_have_exactly_one_winner() {
        let dir = temp_leases("race");
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..8 {
                let (dir, winners) = (&dir, &winners);
                s.spawn(move || {
                    let worker = format!("w{i}");
                    if let Claim::Acquired(g) = dir.claim("w|c|lru", &worker, TTL).unwrap() {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        std::mem::forget(g); // keep the lease until the end
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(dir.scan().len(), 1);
        std::fs::remove_dir_all(dir.root()).unwrap();
    }
}
