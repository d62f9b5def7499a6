//! Holds a run on one core. The process is pinned to the last core it
//! may use, so `available_parallelism` — and with it the server's
//! default reactor shards, the estimators' worker threads and the
//! benchmark's client connections — is one, and an idle-priority
//! spinner keeps that core from halting between requests.
//!
//! Why: on a shared virtual host, a halted core that is woken (a
//! request handed to another thread, a timer firing) waits for the host
//! to schedule it again, and that wait, reported as CPU steal, moved
//! serving throughput by more than a third between runs. A core that
//! never halts saw next to no steal. The spinner runs only when no
//! other thread of the core is runnable, and any woken thread preempts
//! it at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bytes of a Linux `cpu_set_t`.
const CPU_SET_BYTES: usize = 128;
/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// The held core; dropping it stops and joins the spinner.
pub struct OneCore {
    /// The core the process runs on.
    pub cpu: usize,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl OneCore {
    /// Pins the calling thread (and so every thread it spawns later) to
    /// its last allowed core and starts the spinner there. Call it
    /// before any other thread is spawned.
    pub fn hold() -> Result<OneCore, String> {
        let mut mask = [0u8; CPU_SET_BYTES];
        // SAFETY: `mask` is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = (0..CPU_SET_BYTES * 8)
            .rev()
            .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
            .ok_or("no allowed core")?;
        let mut one = [0u8; CPU_SET_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is a readable buffer of the size passed.
        if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let spinner = std::thread::spawn(move || {
            let priority = 0i32;
            // SAFETY: `priority` is a valid `struct sched_param`, whose
            // only field is an int; pid 0 is the calling thread.
            let set = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
            let _ = tx.send(if set == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error().to_string())
            });
            if set != 0 {
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let held = OneCore {
            cpu,
            stop,
            spinner: Some(spinner),
        };
        match rx.recv() {
            Ok(Ok(())) => Ok(held),
            Ok(Err(e)) => Err(format!("sched_setscheduler(SCHED_IDLE): {e}")),
            Err(_) => Err("spinner thread ended early".into()),
        }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}
