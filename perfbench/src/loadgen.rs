//! The open-loop load generator: one sender thread fires a precomputed
//! Poisson schedule across a few pipelined connections, one receiver
//! thread reads every reply and checks it against the offline
//! reference. Two threads and at most `nproc` connections, whatever
//! the offered rate. Each request is timed from its *scheduled* send
//! time, so a stall is charged to every request queued behind it.

use crate::host::{self, thread_cpu_ns};
use crate::spans::Span;
use qn_serve::protocol::{ErrorCode, FrameHeader};
use qn_serve::reactor::{FrameAccumulator, FrameStep, Interest, Poller};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Length of the windows a rung's host steal is sampled over. Steal
/// comes in bursts; 200 ms holds 40 ticks of the host's two CPUs.
pub const STEAL_WINDOW: Duration = Duration::from_millis(200);

/// Precomputed wire traffic of one workload: the request frame of every
/// pool item (its request id is the item index) and the exact `ok`
/// reply payload the offline reference predicts for it.
#[derive(Debug, Default)]
pub struct Target {
    pub frames: Vec<Vec<u8>>,
    pub expect: Vec<Vec<u8>>,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok` reply, byte-identical to the reference.
    Ok,
    /// Typed `Busy` shed.
    Busy,
    /// Any other error reply, a lost connection, or a reply whose
    /// request id is not the one owed next on its connection.
    Error,
    /// `ok` reply whose bytes differ from the reference.
    Wrong,
    /// No reply before the drain deadline.
    Missing,
}

/// One request of a rung. Times are ns from the rung start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub sched_ns: u64,
    /// When the sender began writing the request.
    pub sent_ns: u64,
    /// When the request's last byte was handed to the socket.
    pub written_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the scheduled send time.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sched_ns) as f64 / 1e6
    }

    /// Latency from the request's last byte reaching the socket: the
    /// server's view, without time the sender spent blocked on flow
    /// control.
    pub fn admitted_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.written_ns) as f64 / 1e6
    }

    /// How late the sender was against the schedule.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.sched_ns) as f64 / 1e6
    }
}

/// Everything one rung produced.
#[derive(Debug)]
pub struct RungRun {
    pub records: Vec<Record>,
    /// Schedule length (arrivals fall in `[0, horizon)`).
    pub horizon_ns: u64,
    /// CPU time of the generator's two threads.
    pub generator_cpu_ns: u64,
    /// CPU time of the whole process (server included) over the rung.
    pub process_cpu_ns: u64,
    /// Share of the host's CPU time the hypervisor stole during the rung.
    pub steal_share: f64,
    /// The same share per consecutive [`STEAL_WINDOW`] of the rung:
    /// `(start_ns, end_ns, share)` from the rung start.
    pub steal_windows: Vec<(u64, u64, f64)>,
    /// Whether every reply arrived and every connection is still in
    /// step. When not, replies may still be in flight on the
    /// connections, and the next rung must open fresh ones.
    pub settled: bool,
    /// One `loadgen.request` span per settled request (schedule to
    /// reply, ns from the rung start), recorded by the receiver as each
    /// reply completes; empty unless the rung was traced.
    pub spans: Vec<Span>,
}

impl RungRun {
    /// Seconds from the rung start to the later of the horizon and the
    /// last reply: the window the rung's replies were delivered in.
    pub fn elapsed_s(&self) -> f64 {
        let last_done = self
            .records
            .iter()
            .map(|r| r.done_ns)
            .filter(|&d| d != u64::MAX)
            .max()
            .unwrap_or(0);
        last_done.max(self.horizon_ns) as f64 / 1e9
    }

    /// Time from the last scheduled arrival to the last reply.
    pub fn drain_ms(&self) -> f64 {
        let last_sched = self.records.iter().map(|r| r.sched_ns).max().unwrap_or(0);
        let last_done = self.records.iter().map(|r| r.done_ns).max().unwrap_or(0);
        last_done.saturating_sub(last_sched) as f64 / 1e6
    }

    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }
}

fn offset_ns(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Classify one complete reply frame against the reference.
fn classify(target: &Target, item: usize, status: u16, request_id: u32, payload: &[u8]) -> Outcome {
    if status == ErrorCode::Busy as u16 {
        Outcome::Busy
    } else if status != 0 || request_id as usize != item {
        Outcome::Error
    } else if payload != target.expect[item].as_slice() {
        Outcome::Wrong
    } else {
        Outcome::Ok
    }
}

/// Fire `arrivals` (`(offset_ns, item)`, sorted by offset) over `conns`
/// and collect every reply, waiting at most `drain_cap` past the
/// horizon for stragglers. Arrival `i` goes out on connection
/// `i % conns.len()`; the server answers each connection in order, so
/// the k-th reply on a connection belongs to its k-th request. With
/// `trace`, the receiver records a span per request as it settles.
pub fn run_rung(
    conns: &[TcpStream],
    target: &Target,
    arrivals: &[(u64, usize)],
    horizon_ns: u64,
    drain_cap: Duration,
    trace: bool,
) -> RungRun {
    let n = conns.len();
    let per_conn: Vec<Vec<usize>> = (0..n)
        .map(|c| (c..arrivals.len()).step_by(n).collect())
        .collect();
    let sent: Vec<AtomicU64> = arrivals.iter().map(|_| AtomicU64::new(0)).collect();
    let written: Vec<AtomicU64> = arrivals.iter().map(|_| AtomicU64::new(0)).collect();
    let cpu0 = host::process_cpu_ns();
    let ticks0 = host::cpu_ticks();
    // A short lead so both threads are parked before the first arrival.
    let t0 = Instant::now() + Duration::from_millis(5);
    let deadline = t0 + Duration::from_nanos(horizon_ns) + drain_cap;
    let (sender_cpu, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            host::tighten_timer_slack();
            let cpu = thread_cpu_ns();
            let mut writers: Vec<&TcpStream> = conns.iter().collect();
            for (i, &(at, item)) in arrivals.iter().enumerate() {
                let due = t0 + Duration::from_nanos(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent[i].store(offset_ns(t0, Instant::now()), Ordering::SeqCst);
                // A failed write surfaces on the reader side as a lost
                // connection; the sender keeps its schedule.
                let _ = writers[i % n].write_all(&target.frames[item]);
                written[i].store(offset_ns(t0, Instant::now()), Ordering::SeqCst);
            }
            thread_cpu_ns() - cpu
        });
        let receiver = s.spawn(|| receive(conns, target, arrivals, &per_conn, t0, deadline, trace));
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let records = arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, _))| Record {
            sched_ns: at,
            sent_ns: sent[i].load(Ordering::SeqCst),
            written_ns: written[i].load(Ordering::SeqCst),
            done_ns: received.done[i],
            outcome: received.outcomes[i],
        })
        .collect::<Vec<_>>();
    let settled = received.in_step && records.iter().all(|r| r.outcome != Outcome::Missing);
    RungRun {
        records,
        horizon_ns,
        generator_cpu_ns: sender_cpu + received.cpu_ns,
        process_cpu_ns: host::process_cpu_ns() - cpu0,
        steal_share: host::cpu_ticks().steal_share_since(ticks0),
        settled,
        spans: received.spans,
        steal_windows: received
            .steal_samples
            .windows(2)
            .map(|w| (w[0].0, w[1].0, w[1].1.steal_share_since(w[0].1)))
            .collect(),
    }
}

/// What the receiver collected.
struct Received {
    done: Vec<u64>,
    outcomes: Vec<Outcome>,
    /// No connection was lost, broke framing or sent a reply out of step.
    in_step: bool,
    spans: Vec<Span>,
    /// Host CPU ticks, sampled every [`STEAL_WINDOW`] (ns from rung start).
    steal_samples: Vec<(u64, host::CpuTicks)>,
    cpu_ns: u64,
}

/// The receiver: poll every connection for readability, accumulate
/// frames and settle each request as its reply completes.
fn receive(
    conns: &[TcpStream],
    target: &Target,
    arrivals: &[(u64, usize)],
    per_conn: &[Vec<usize>],
    t0: Instant,
    deadline: Instant,
    trace: bool,
) -> Received {
    let cpu = thread_cpu_ns();
    let n = conns.len();
    let mut done = vec![u64::MAX; arrivals.len()];
    let mut outcomes = vec![Outcome::Missing; arrivals.len()];
    let mut accs: Vec<FrameAccumulator> = (0..n).map(|_| FrameAccumulator::default()).collect();
    let mut headers: Vec<Option<FrameHeader>> = vec![None; n];
    let mut next: Vec<usize> = vec![0; n];
    let mut open: Vec<bool> = vec![true; n];
    let mut remaining = arrivals.len();
    let mut spans = Vec::with_capacity(if trace { arrivals.len() } else { 0 });
    let mut poller = Poller::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut steal_samples = vec![(0, host::cpu_ticks())];
    let mut next_sample = t0 + STEAL_WINDOW;
    while remaining > 0 {
        let now = Instant::now();
        if now >= next_sample {
            steal_samples.push((offset_ns(t0, now), host::cpu_ticks()));
            next_sample += STEAL_WINDOW;
        }
        if now >= deadline {
            break;
        }
        poller.clear();
        let slots: Vec<Option<usize>> = conns
            .iter()
            .zip(&open)
            .map(|(c, &o)| o.then(|| poller.register(c.as_raw_fd(), Interest::Read)))
            .collect();
        if slots.iter().all(Option::is_none) {
            break;
        }
        let wait = (deadline - now).min(Duration::from_millis(50));
        if poller.poll(Some(wait)).is_err() {
            continue;
        }
        for c in 0..n {
            let Some(slot) = slots[c] else { continue };
            let ready = poller.readiness(slot);
            if !ready.readable && !ready.error {
                continue;
            }
            // Readable: one read returns what is buffered without
            // blocking (the sockets stay blocking for the sender).
            let got = (&conns[c]).read(&mut buf);
            let now_ns = offset_ns(t0, Instant::now());
            let lost = match got {
                Ok(0) | Err(_) => true,
                Ok(k) => {
                    accs[c].extend(&buf[..k]);
                    false
                }
            };
            loop {
                match accs[c].step(headers[c].as_ref()) {
                    FrameStep::NeedMore => break,
                    FrameStep::Header(h) => headers[c] = Some(h),
                    FrameStep::Frame(frame) => {
                        headers[c] = None;
                        let Some(&j) = per_conn[c].get(next[c]) else {
                            break;
                        };
                        next[c] += 1;
                        outcomes[j] = classify(
                            target,
                            arrivals[j].1,
                            frame.status,
                            frame.request_id,
                            &frame.payload,
                        );
                        done[j] = now_ns;
                        remaining -= 1;
                        if trace {
                            spans.push(Span {
                                name: "loadgen.request",
                                request: j as u64,
                                parent: None,
                                start_ns: arrivals[j].0,
                                end_ns: now_ns,
                            });
                        }
                        if frame.request_id as usize != arrivals[j].1 {
                            // Out of step: every later reply on this
                            // connection would be matched to the wrong
                            // request.
                            open[c] = false;
                            break;
                        }
                    }
                    FrameStep::Violation(_) => {
                        open[c] = false;
                        break;
                    }
                }
            }
            if lost || !open[c] {
                open[c] = false;
                for &j in &per_conn[c][next[c]..] {
                    outcomes[j] = Outcome::Error;
                    done[j] = now_ns;
                    remaining -= 1;
                }
                next[c] = per_conn[c].len();
            }
        }
    }
    steal_samples.push((offset_ns(t0, Instant::now()), host::cpu_ticks()));
    Received {
        done,
        outcomes,
        in_step: open.iter().all(|&o| o),
        spans,
        steal_samples,
        cpu_ns: thread_cpu_ns() - cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_matching_reply_to_the_owed_request_counts_as_wrong() {
        let target = Target {
            frames: vec![Vec::new(); 3],
            expect: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
        };
        assert_eq!(classify(&target, 1, 0, 1, b"b"), Outcome::Ok);
        assert_eq!(classify(&target, 1, 0, 1, b"x"), Outcome::Wrong);
        // A leftover reply to another request is the harness out of
        // step, not a wrong answer from the program.
        assert_eq!(classify(&target, 1, 0, 2, b"c"), Outcome::Error);
        assert_eq!(
            classify(&target, 1, ErrorCode::Busy as u16, 1, b""),
            Outcome::Busy
        );
        assert_eq!(classify(&target, 1, 7, 1, b""), Outcome::Error);
    }
}
