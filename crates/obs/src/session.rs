//! The process-global event sink and the sessions that own it.

use crate::event::TraceEvent;
use crate::manifest::RunManifest;
use crate::trace::Trace;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Fast-path gate: a single relaxed load decides whether [`emit`] does
/// anything at all.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serialises sessions: at most one recording exists at a time, so
/// concurrently running tests cannot interleave their events. Held (as
/// a guard inside [`TraceSession`]) for the session's whole lifetime.
static RECORDING: Mutex<()> = Mutex::new(());

/// The active sink, if any.
static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    SINK.get_or_init(|| Mutex::new(None))
}

/// Ignores mutex poisoning: a panicking emitter must not silence every
/// later session in the process (tests run many in sequence).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a trace session is currently recording. Instrumented code
/// can use this to skip preparing expensive event inputs; [`emit`]
/// checks it internally, so a plain `emit` call is already zero-cost
/// when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits one event to the active session, if any. The closure only runs
/// while a session is recording, so building the event (allocations,
/// clones) costs nothing when tracing is off.
#[inline]
pub fn emit<F: FnOnce() -> TraceEvent>(f: F) {
    if !enabled() {
        return;
    }
    let line = match serde_json::to_string(&f()) {
        Ok(l) => l,
        Err(_) => return,
    };
    let mut guard = lock(sink());
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

/// An active recording: while it lives, [`emit`] appends JSONL lines to
/// its writer. Dropping the session disables tracing and flushes.
///
/// Only one session can record at a time; constructing a second one
/// blocks until the first is dropped (construct from another thread) —
/// creating one while the same thread already holds one deadlocks, so
/// don't nest sessions.
pub struct TraceSession {
    /// Present for [`TraceSession::capture`] sessions only.
    buffer: Option<Arc<Mutex<Vec<u8>>>>,
    closed: bool,
    _exclusive: MutexGuard<'static, ()>,
}

/// `Write` adapter sharing a captured in-memory buffer with the session.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceSession {
    fn install(
        writer: Box<dyn Write + Send>,
        manifest: &RunManifest,
        buffer: Option<Arc<Mutex<Vec<u8>>>>,
    ) -> std::io::Result<TraceSession> {
        let exclusive = lock(&RECORDING);
        let mut w = writer;
        let line = serde_json::to_string(manifest)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
        *lock(sink()) = Some(w);
        ENABLED.store(true, Ordering::Relaxed);
        Ok(TraceSession { buffer, closed: false, _exclusive: exclusive })
    }

    /// Starts recording to `path` (truncating it), writing `manifest` as
    /// the first line.
    pub fn to_file(path: impl AsRef<Path>, manifest: &RunManifest) -> std::io::Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        Self::install(Box::new(file), manifest, None)
    }

    /// Starts recording into memory; retrieve the result with
    /// [`TraceSession::finish`].
    pub fn capture(manifest: &RunManifest) -> Self {
        let buf = Arc::new(Mutex::new(Vec::new()));
        Self::install(Box::new(SharedBuf(buf.clone())), manifest, Some(buf))
            .expect("in-memory sink cannot fail")
    }

    /// Stops a [`TraceSession::capture`] session and parses everything
    /// recorded into a [`Trace`].
    ///
    /// # Panics
    /// Panics on a file-backed session (nothing to return) or if the
    /// recorded bytes fail to parse — both are programming errors, not
    /// runtime conditions.
    pub fn finish(mut self) -> Trace {
        self.close();
        let buf = self.buffer.take().expect("finish() requires a capture() session");
        let bytes = std::mem::take(&mut *lock(&buf));
        let text = String::from_utf8(bytes).expect("trace output is UTF-8");
        text.parse().expect("self-recorded trace parses")
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        ENABLED.store(false, Ordering::Relaxed);
        if let Some(mut w) = lock(sink()).take() {
            let _ = w.flush();
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_session_is_a_noop() {
        // "Without a session" has to be made true first: a sibling test
        // may be recording, and `ENABLED` is process-wide.
        let _no_session = lock(&RECORDING);
        // Must not panic, allocate a sink, or enable anything.
        emit(|| panic!("closure must not run while disabled"));
        assert!(!enabled());
    }

    #[test]
    fn capture_records_manifest_and_events_in_order() {
        let manifest = RunManifest::new("test", 7, 2, 1, 1);
        let session = TraceSession::capture(&manifest);
        assert!(enabled());
        for ev in TraceEvent::samples() {
            emit(|| ev.clone());
        }
        let trace = session.finish();
        assert!(!enabled());
        assert_eq!(trace.manifest.as_ref(), Some(&manifest));
        assert_eq!(trace.events, TraceEvent::samples());
    }

    #[test]
    fn sessions_serialise_with_each_other() {
        // A second session started from another thread waits for the
        // first to drop instead of interleaving events.
        let m = RunManifest::new("a", 0, 1, 1, 1);
        let s1 = TraceSession::capture(&m);
        emit(|| TraceEvent::FaultRecovered { worker: 0 });
        let t2 = std::thread::spawn(move || {
            let s2 = TraceSession::capture(&RunManifest::new("b", 0, 1, 1, 1));
            emit(|| TraceEvent::FaultRecovered { worker: 99 });
            s2.finish()
        });
        // Give the thread a moment to block on the recording lock.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t1 = s1.finish();
        let t2 = t2.join().unwrap();
        assert_eq!(t1.events, vec![TraceEvent::FaultRecovered { worker: 0 }]);
        assert_eq!(t2.events, vec![TraceEvent::FaultRecovered { worker: 99 }]);
    }
}
