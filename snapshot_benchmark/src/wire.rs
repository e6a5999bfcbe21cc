//! The closed loop over the wire: each connection sends its next
//! statement only after the previous one's `Ready` frame is back, through
//! `snapshot_server::Client`, from this one process.
//!
//! RTT is first request byte written → `Ready` frame read (`Client::query`
//! returns at `Ready`, having reassembled every `RowBatch` on the way).

use crate::check::{bag_hash, BagHash, CensusSeen};
use crate::workloads::{Check, Op, Workload};
use snapshot_server::{Client, QueryResponse, RemoteResult};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// When a [`Driver::run`] stops. Either way every connection finishes the
/// pattern cycle it is in, so the statement mix is exact.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many whole cycles per connection (warm-up).
    Cycles(usize),
    /// At the first cycle boundary after this much time (the window).
    After(Duration),
}

struct Conn {
    client: Client,
    /// Index of this connection's next operation.
    next_op: usize,
    /// Commits this connection has had acknowledged (it alone writes its
    /// table, so this is also the table's commit count).
    writes_done: usize,
}

/// What one [`Driver::run`] measured.
#[derive(Debug, Default)]
pub struct Window {
    /// RTT samples in milliseconds, per statement class.
    pub rtt_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub censuses: Vec<CensusSeen>,
    /// Bytes of acknowledged write SQL text.
    pub write_sql_bytes: u64,
    /// Client time spent checking responses, summed over connections (the
    /// closed loop's only think time).
    pub check_s: f64,
}

impl Window {
    pub fn statements(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Adds `other`'s samples and counts to this window (wall time too:
    /// the sub-windows of a run follow one another).
    pub fn merge(&mut self, other: Window) {
        if self.rtt_ms.is_empty() {
            self.rtt_ms = vec![Vec::new(); other.rtt_ms.len()];
        }
        self.wall_s += other.wall_s;
        for (mine, theirs) in self.rtt_ms.iter_mut().zip(other.rtt_ms) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(MAX_FAILURE_LINES);
        self.censuses.extend(other.censuses);
        self.write_sql_bytes += other.write_sql_bytes;
        self.check_s += other.check_s;
    }
}

const MAX_FAILURE_LINES: usize = 8;

/// The load generator: the workload's connections, kept open from warm-up
/// through the measured window.
pub struct Driver<'a> {
    w: &'a Workload,
    expected: &'a [BagHash],
    conns: Vec<Conn>,
    progress: Progress,
}

/// Per registry table: commits sent / commits acknowledged. A census
/// reads `acked` before it is sent and `sent` after it returns — the
/// commit prefixes it may have seen lie between the two.
#[derive(Debug, Default)]
struct Progress {
    sent: [AtomicUsize; 2],
    acked: [AtomicUsize; 2],
}

impl<'a> Driver<'a> {
    /// Opens the workload's connections (at most 2).
    pub fn connect(
        w: &'a Workload,
        expected: &'a [BagHash],
        addr: SocketAddr,
    ) -> Result<Driver<'a>, String> {
        let conns = (0..w.connections)
            .map(|_| {
                Client::connect_timeout(&addr, Duration::from_secs(10))
                    .map(|client| Conn {
                        client,
                        next_op: 0,
                        writes_done: 0,
                    })
                    .map_err(|e| format!("connect {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Driver {
            w,
            expected,
            conns,
            progress: Progress::default(),
        })
    }

    /// Commits acknowledged so far, per registry table.
    pub fn acked(&self) -> [usize; 2] {
        [
            self.progress.acked[0].load(Ordering::SeqCst),
            self.progress.acked[1].load(Ordering::SeqCst),
        ]
    }

    /// Runs the closed loop on every connection until `stop`.
    pub fn run(&mut self, stop: Stop) -> Window {
        let (w, expected) = (self.w, self.expected);
        let progress = &self.progress;
        let started = Instant::now();
        let mut total = Window {
            rtt_ms: vec![Vec::new(); w.classes.len()],
            ..Window::default()
        };
        let windows: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(id, conn)| {
                    scope.spawn(move || run_conn(w, expected, id, conn, progress, stop, started))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        for window in windows {
            total.merge(window);
        }
        total.wall_s = started.elapsed().as_secs_f64();
        total
    }

    /// Closes the connections cleanly.
    pub fn close(self) {
        for conn in self.conns {
            let _ = conn.client.close();
        }
    }
}

fn run_conn(
    w: &Workload,
    expected: &[BagHash],
    id: usize,
    conn: &mut Conn,
    progress: &Progress,
    stop: Stop,
    started: Instant,
) -> Window {
    let mut out = Window {
        rtt_ms: vec![Vec::new(); w.classes.len()],
        ..Window::default()
    };
    let Progress { sent, acked } = progress;
    let cycle = w.cycle_len();
    let mut cycles_done = 0usize;
    loop {
        let finished = match stop {
            Stop::Cycles(n) => cycles_done >= n,
            Stop::After(d) => started.elapsed() >= d,
        };
        if finished {
            return out;
        }
        for _ in 0..cycle {
            let op = w.op(id, conn.next_op, conn.writes_done);
            conn.next_op += 1;
            out.attempted += 1;
            let census_lo = match op.check {
                Check::Census { table } => acked[table].load(Ordering::SeqCst),
                _ => 0,
            };
            if let Some(table) = op.writes {
                sent[table].fetch_add(1, Ordering::SeqCst);
            }
            let sent_at = Instant::now();
            let response = conn.client.query(&op.sql);
            let rtt_ms = sent_at.elapsed().as_secs_f64() * 1e3;
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    // The connection is gone: nothing more can be sent on it.
                    out.failed += 1;
                    out.failures.push(format!("connection {id}: {e}"));
                    return out;
                }
            };
            let checking = Instant::now();
            let verdict = verify(&op, &response, expected);
            out.check_s += checking.elapsed().as_secs_f64();
            match verdict {
                Ok(seen) => {
                    out.rtt_ms[op.class].push(rtt_ms);
                    if let Some(table) = op.writes {
                        acked[table].fetch_add(1, Ordering::SeqCst);
                        conn.writes_done += 1;
                        out.write_sql_bytes += op.sql.len() as u64;
                    }
                    if let (Check::Census { table }, Some(seen)) = (&op.check, seen) {
                        out.censuses.push(CensusSeen {
                            table: *table,
                            lo: census_lo,
                            hi: sent[*table].load(Ordering::SeqCst),
                            seen,
                        });
                    }
                }
                Err(why) => {
                    out.failed += 1;
                    if out.failures.len() < MAX_FAILURE_LINES {
                        out.failures
                            .push(format!("{}: {why}", w.classes[op.class].name));
                    }
                }
            }
        }
        cycles_done += 1;
    }
}

/// Checks one response against what the operation must produce. Returns
/// the bag a census saw (its check needs the mirror and happens later).
fn verify(
    op: &Op,
    response: &QueryResponse,
    expected: &[BagHash],
) -> Result<Option<BagHash>, String> {
    if let Some(e) = &response.error {
        return Err(format!("server error: {e}"));
    }
    match &op.check {
        Check::Static { variant } => {
            let seen = single_rowset(response)?;
            if seen == expected[*variant] {
                Ok(None)
            } else {
                Err(format!(
                    "row bag differs from the naive route ({} rows, expected {}): {}",
                    seen.rows, expected[*variant].rows, op.sql
                ))
            }
        }
        Check::Census { .. } => single_rowset(response).map(Some),
        Check::Commit { summaries } => {
            let got: Vec<&str> = response
                .results
                .iter()
                .map(|r| match r {
                    RemoteResult::Done(s) => s.as_str(),
                    RemoteResult::Rows(_) => "<rows>",
                })
                .collect();
            if got == summaries.iter().map(String::as_str).collect::<Vec<_>>() {
                Ok(None)
            } else {
                Err(format!(
                    "commit unit answered {got:?}, expected {summaries:?}"
                ))
            }
        }
    }
}

fn single_rowset(response: &QueryResponse) -> Result<BagHash, String> {
    match response.results.as_slice() {
        [RemoteResult::Rows(table)] => Ok(bag_hash(table.rows())),
        other => Err(format!(
            "expected one result set, got {} results",
            other.len()
        )),
    }
}

/// One query on a fresh control connection, returning its single row set.
pub fn query_rows(addr: SocketAddr, sql: &str) -> Result<storage::Table, String> {
    let mut client =
        Client::connect_timeout(&addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let response = client.query(sql).map_err(|e| e.to_string())?;
    let _ = client.close();
    if let Some(e) = response.error {
        return Err(format!("{sql}: {e}"));
    }
    match response.results.into_iter().next() {
        Some(RemoteResult::Rows(table)) => Ok(table),
        _ => Err(format!("{sql}: no result set")),
    }
}
