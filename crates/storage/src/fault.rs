//! Deterministic fault injection for chaos testing.
//!
//! [`FaultPager`] wraps any [`PageStore`] and injects a seeded schedule of
//! faults into reads and writes:
//!
//! * **transient errors** — the operation fails with a retryable
//!   [`StorageError::Io`] (kind `Interrupted`);
//! * **torn writes** — only a prefix of the page reaches the inner store,
//!   the rest keeps its previous content; the write *reports success*
//!   (that is what makes torn writes dangerous — the checksum layer above
//!   must catch them at read time);
//! * **bit flips** — a single bit of the page is inverted, on the read
//!   path (returned data differs from stored data) or on the write path
//!   (stored data differs from what was written).
//!
//! The schedule is a pure function of `(seed, operation counter)` via
//! SplitMix64, so a chaos run is exactly reproducible from its seed: same
//! build, same queries, same faults, same outcome. Injection is gated by an
//! [`FaultHandle::arm`] switch shared with the test harness, letting tests
//! build a clean engine first and unleash faults only on the phase under
//! test.

use crate::error::{StorageError, StorageResult};
use crate::iostats::IoStats;
use crate::page::{zeroed_page, Page, PageId, PAGE_SIZE};
use crate::pager::PageStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Fault probabilities in parts-per-million, plus the schedule seed.
/// Integer ppm (not floats) keeps the schedule trivially portable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability a read fails with a transient I/O error.
    pub transient_read_ppm: u32,
    /// Probability a write fails with a transient I/O error.
    pub transient_write_ppm: u32,
    /// Probability a write is torn (prefix persisted, success reported).
    pub torn_write_ppm: u32,
    /// Probability a read returns the page with one bit flipped.
    pub bit_flip_read_ppm: u32,
    /// Probability a write persists the page with one bit flipped.
    pub bit_flip_write_ppm: u32,
}

/// What the crash channel says about one write-path operation.
///
/// Produced by [`FaultHandle::crash_verdict`]; consumed by every store
/// that models process death — [`FaultPager`] for the page write path,
/// and the WAL's simulated filesystem for appends/fsyncs/renames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Not the crash point: perform the operation normally.
    Proceed,
    /// This operation IS the crash point: the process dies mid-operation.
    /// The store should persist at most a torn prefix of the operation's
    /// effect (sized by a [`splitmix64`] draw) and then fail; the carried
    /// value is the operation ordinal, for deterministic prefix draws.
    Kill(u64),
    /// The process already died: every operation fails, nothing persists.
    Dead,
}

/// Shared control/observation handle for a [`FaultPager`]: the arming
/// switch and counters of faults actually injected (so chaos tests can
/// assert they exercised something, not vacuously passed).
#[derive(Debug, Default)]
pub struct FaultHandle {
    armed: AtomicBool,
    transient: AtomicU64,
    torn: AtomicU64,
    flipped: AtomicU64,
    /// Crash channel: kill the write path at the Nth operation (1-based;
    /// 0 = channel disarmed). Independent of the `armed` switch so chaos
    /// tests can schedule a crash without enabling the probabilistic
    /// channels.
    crash_at: AtomicU64,
    /// Write-path operations observed while the crash channel was armed.
    crash_ops: AtomicU64,
    /// Latched once the crash fires: the "process" is dead, every
    /// subsequent operation fails.
    crashed: AtomicBool,
}

impl FaultHandle {
    /// Creates a disarmed handle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Enables or disables fault injection.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Whether faults are currently being injected.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Transient errors injected so far.
    pub fn transient_injected(&self) -> u64 {
        self.transient.load(Ordering::Relaxed)
    }

    /// Torn writes injected so far.
    pub fn torn_injected(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }

    /// Bit flips injected so far (read + write path).
    pub fn flips_injected(&self) -> u64 {
        self.flipped.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> u64 {
        self.transient_injected() + self.torn_injected() + self.flips_injected()
    }

    /// Arms the crash channel: the `n`th write-path operation from now
    /// (1-based) dies mid-write. `n = 0` disarms. Resets the operation
    /// counter and the crashed latch, so a handle can schedule successive
    /// crash points across reopen cycles.
    pub fn arm_crash_at(&self, n: u64) {
        self.crash_at.store(n, Ordering::SeqCst);
        self.crash_ops.store(0, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Whether the scheduled crash has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Write-path operations counted against the crash schedule so far.
    /// A chaos harness sweeps crash points by first running a scenario to
    /// completion with the channel disarmed-but-counting disabled, then
    /// re-running with `arm_crash_at(i)` for every `i` up to this count.
    pub fn crash_ops_seen(&self) -> u64 {
        self.crash_ops.load(Ordering::SeqCst)
    }

    /// Classifies one write-path operation against the crash schedule.
    /// Counts the operation, fires the crash when the schedule says so,
    /// and latches [`Self::is_crashed`] from then on.
    pub fn crash_verdict(&self) -> CrashVerdict {
        if self.crashed.load(Ordering::SeqCst) {
            return CrashVerdict::Dead;
        }
        let at = self.crash_at.load(Ordering::SeqCst);
        if at == 0 {
            return CrashVerdict::Proceed;
        }
        let op = self.crash_ops.fetch_add(1, Ordering::SeqCst) + 1;
        if op == at {
            self.crashed.store(true, Ordering::SeqCst);
            CrashVerdict::Kill(op)
        } else if op > at {
            // Lost the race with the crashing thread: also dead.
            CrashVerdict::Dead
        } else {
            CrashVerdict::Proceed
        }
    }
}

/// SplitMix64: tiny, high-quality, stateless mixing of a 64-bit input.
/// Public because every deterministic fault schedule in the workspace —
/// this pager's channels, the WAL's simulated crash filesystem — derives
/// its draws from the same mixer, keeping cross-layer chaos runs
/// reproducible from one seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fault-injecting page store adapter. See the module docs.
#[derive(Debug)]
pub struct FaultPager<S: PageStore> {
    inner: S,
    cfg: FaultConfig,
    handle: Arc<FaultHandle>,
    op: AtomicU64,
}

impl<S: PageStore> FaultPager<S> {
    /// Wraps `inner` with a fresh (disarmed) handle.
    pub fn new(inner: S, cfg: FaultConfig) -> Self {
        Self::with_handle(inner, cfg, FaultHandle::new())
    }

    /// Wraps `inner`, sharing an externally held handle — the shape chaos
    /// tests use to arm/observe a pager buried inside an engine.
    pub fn with_handle(inner: S, cfg: FaultConfig, handle: Arc<FaultHandle>) -> Self {
        Self { inner, cfg, handle, op: AtomicU64::new(0) }
    }

    /// The control/observation handle.
    pub fn handle(&self) -> Arc<FaultHandle> {
        Arc::clone(&self.handle)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Draws the deterministic random word for `(op, channel)`.
    fn draw(&self, op: u64, channel: u64) -> u64 {
        splitmix64(self.cfg.seed ^ splitmix64(op.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ channel))
    }

    /// True when the channel fires for this operation.
    fn fires(&self, op: u64, channel: u64, ppm: u32) -> bool {
        ppm > 0 && (self.draw(op, channel) % 1_000_000) < ppm as u64
    }

    fn transient(op: &'static str, id: PageId) -> StorageError {
        StorageError::Io {
            op,
            page: Some(id),
            source: std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient fault",
            ),
        }
    }

    /// The error every operation returns once the crash channel fired.
    /// Deliberately *not* transient: a dead process does not come back
    /// because the caller retried.
    fn crashed(op: &'static str, id: PageId) -> StorageError {
        StorageError::Io {
            op,
            page: Some(id),
            source: std::io::Error::new(std::io::ErrorKind::BrokenPipe, "injected crash"),
        }
    }

    fn flip_one_bit(&self, page: &mut [u8; PAGE_SIZE], op: u64) {
        let bit = (self.draw(op, 7) % (PAGE_SIZE as u64 * 8)) as usize;
        page[bit / 8] ^= 1 << (bit % 8);
        self.handle.flipped.fetch_add(1, Ordering::Relaxed);
    }
}

impl<S: PageStore> PageStore for FaultPager<S> {
    /// Allocation is never faulted: the interesting failure surface is the
    /// data path, and faulting growth would only abort setup early.
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    /// A flipped bit lands in a copy of the page: the store's own bytes
    /// stay as written.
    fn read(&self, id: PageId) -> StorageResult<Page> {
        // Reads do not advance the crash schedule (the channel kills the
        // *write* path at the Nth write), but a dead process reads nothing.
        if self.handle.is_crashed() {
            return Err(Self::crashed("read", id));
        }
        if !self.handle.is_armed() {
            return self.inner.read(id);
        }
        let op = self.op.fetch_add(1, Ordering::Relaxed);
        if self.fires(op, 1, self.cfg.transient_read_ppm) {
            self.handle.transient.fetch_add(1, Ordering::Relaxed);
            return Err(Self::transient("read", id));
        }
        let mut page = self.inner.read(id)?;
        if self.fires(op, 2, self.cfg.bit_flip_read_ppm) {
            self.flip_one_bit(Arc::make_mut(&mut page), op);
        }
        Ok(page)
    }

    fn write(&self, id: PageId, page: Page) -> StorageResult<()> {
        match self.handle.crash_verdict() {
            CrashVerdict::Proceed => {}
            CrashVerdict::Dead => return Err(Self::crashed("write", id)),
            CrashVerdict::Kill(op) => {
                // The process dies mid-write: a SplitMix64-sized prefix of
                // the page lands (possibly zero bytes), the tail keeps its
                // old content, and — unlike the torn-write channel — the
                // caller is told the write FAILED, because there is no
                // caller anymore. Recovery code must cope with both the
                // prefix having landed and it having been lost.
                let split = (self.draw(op, 8) % (PAGE_SIZE as u64 + 1)) as usize;
                if split > 0 {
                    let mut torn = self.inner.read(id).unwrap_or_else(|_| zeroed_page());
                    Arc::make_mut(&mut torn)[..split].copy_from_slice(&page[..split]);
                    let _ = self.inner.write(id, torn);
                }
                return Err(Self::crashed("write", id));
            }
        }
        if !self.handle.is_armed() {
            return self.inner.write(id, page);
        }
        let op = self.op.fetch_add(1, Ordering::Relaxed);
        if self.fires(op, 3, self.cfg.transient_write_ppm) {
            self.handle.transient.fetch_add(1, Ordering::Relaxed);
            return Err(Self::transient("write", id));
        }
        if self.fires(op, 4, self.cfg.torn_write_ppm) {
            // Persist only a prefix; the tail keeps the old content. The
            // caller is told the write succeeded.
            let mut torn = self.inner.read(id).unwrap_or_else(|_| zeroed_page());
            let split = 1 + (self.draw(op, 5) % (PAGE_SIZE as u64 - 1)) as usize;
            Arc::make_mut(&mut torn)[..split].copy_from_slice(&page[..split]);
            self.inner.write(id, torn)?;
            self.handle.torn.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if self.fires(op, 6, self.cfg.bit_flip_write_ppm) {
            let mut flipped = page;
            self.flip_one_bit(Arc::make_mut(&mut flipped), op);
            return self.inner.write(id, flipped);
        }
        self.inner.write(id, page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::checked::CheckedPager;
    use crate::pager::MemPager;

    fn always(ppm_field: impl Fn(&mut FaultConfig)) -> FaultConfig {
        let mut cfg = FaultConfig { seed: 42, ..FaultConfig::default() };
        ppm_field(&mut cfg);
        cfg
    }

    #[test]
    fn disarmed_pager_is_transparent() {
        let cfg = always(|c| c.transient_read_ppm = 1_000_000);
        let store = FaultPager::new(MemPager::new(), cfg);
        let id = store.allocate().unwrap();
        // Not armed: reads succeed despite a 100% fault rate.
        for _ in 0..10 {
            store.read(id).unwrap();
        }
        assert_eq!(store.handle().total_injected(), 0);
    }

    #[test]
    fn armed_transient_reads_fail_typed() {
        let cfg = always(|c| c.transient_read_ppm = 1_000_000);
        let store = FaultPager::new(MemPager::new(), cfg);
        let id = store.allocate().unwrap();
        store.handle().arm(true);
        let err = store.read(id).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(store.handle().transient_injected(), 1);
    }

    #[test]
    fn torn_writes_report_success_but_corrupt_checked_reads() {
        let cfg = always(|c| c.torn_write_ppm = 1_000_000);
        let store = CheckedPager::new(FaultPager::new(MemPager::new(), cfg));
        let handle = store.inner().handle();
        let id = store.allocate().unwrap();
        handle.arm(true);
        let mut page = zeroed_page();
        for b in Arc::make_mut(&mut page).iter_mut() {
            *b = 0xA5;
        }
        store.write(id, page.clone()).unwrap(); // lies: only a prefix landed
        assert!(handle.torn_injected() >= 1);
        handle.arm(false);
        // The checksum layer catches it on read.
        assert!(matches!(store.read(id), Err(StorageError::PageCorrupt { .. })));
    }

    #[test]
    fn bit_flips_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<u32> {
            let cfg = FaultConfig { seed, bit_flip_read_ppm: 500_000, ..FaultConfig::default() };
            let store = FaultPager::new(MemPager::new(), cfg);
            let id = store.allocate().unwrap();
            let mut page = zeroed_page();
            Arc::make_mut(&mut page)[100] = 1;
            store.write(id, page.clone()).unwrap();
            store.handle().arm(true);
            (0..20).map(|_| crate::page::crc32(&store.read(id).unwrap()[..])).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn crash_channel_kills_write_path_at_nth_write() {
        let store = FaultPager::new(MemPager::new(), FaultConfig { seed: 9, ..Default::default() });
        let handle = store.handle();
        let id = store.allocate().unwrap();
        let mut page = zeroed_page();
        for b in Arc::make_mut(&mut page).iter_mut() {
            *b = 0xEE;
        }
        // Crash at the 3rd write: two writes land, the third dies.
        handle.arm_crash_at(3);
        store.write(id, page.clone()).unwrap();
        store.write(id, page.clone()).unwrap();
        let err = store.write(id, page.clone()).unwrap_err();
        assert!(!err.is_transient(), "a crash is not retryable: {err}");
        assert!(handle.is_crashed());
        // Dead process: reads and writes both fail from now on.
        assert!(store.read(id).is_err());
        assert!(store.write(id, page.clone()).is_err());
        // Only pre-death operations count against the schedule; the
        // post-crash attempts short-circuit at the latch.
        assert_eq!(handle.crash_ops_seen(), 3);
        // Re-arming across a "reopen" resurrects the store.
        handle.arm_crash_at(0);
        store.read(id).unwrap();
    }

    #[test]
    fn crash_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let store =
                FaultPager::new(MemPager::new(), FaultConfig { seed, ..Default::default() });
            let id = store.allocate().unwrap();
            let mut page = zeroed_page();
            for b in Arc::make_mut(&mut page).iter_mut() {
                *b = 0xA7;
            }
            store.handle().arm_crash_at(1);
            let _ = store.write(id, page.clone());
            store.handle().arm_crash_at(0);
            crate::page::crc32(&store.read(id).unwrap()[..])
        };
        assert_eq!(run(5), run(5), "same seed, same torn prefix");
    }

    #[test]
    fn flip_counters_count_injections() {
        let cfg = always(|c| c.bit_flip_write_ppm = 1_000_000);
        let store = FaultPager::new(MemPager::new(), cfg);
        let id = store.allocate().unwrap();
        store.handle().arm(true);
        store.write(id, zeroed_page()).unwrap();
        assert_eq!(store.handle().flips_injected(), 1);
        // Exactly one bit differs from zero.
        store.handle().arm(false);
        let ones: u32 = store.read(id).unwrap().iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }
}
