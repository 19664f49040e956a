//! A client connection of either kind, and the log each one keeps of what
//! the server told it.

use crate::wire::{no_retry, Done, WireClient};
use crate::workloads::{Spec, Txn};
use bargain_cluster::TxnResult;
use bargain_common::{Result, TemplateId};
use bargain_net::RemoteSession;
use bargain_workloads::{RemoteDriver, TxnDriver};
use std::time::Instant;

/// One committed transaction as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The workload's template id.
    pub template: TemplateId,
    /// Send (or due) time.
    pub start: Instant,
    /// When the reply was read.
    pub end: Instant,
    /// Whether it committed writes (the reply carried a commit version).
    pub update: bool,
}

/// Everything one connection was told since its deployment booted.
#[derive(Default)]
pub struct ClientLog {
    /// Committed transactions, in reply order.
    pub spans: Vec<Span>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that did not commit: aborts, sheds, transport errors.
    pub failed: u64,
    /// Replies that said "aborted" (the cluster counts these too).
    pub aborts_told: u64,
    /// Replies that carried a commit version.
    pub acked_updates: u64,
    /// Commit versions that did not exceed the connection's previous one.
    pub order_violations: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    last_version: u64,
}

impl ClientLog {
    /// Records one finished operation.
    pub fn record(&mut self, done: &Done) {
        self.attempted += 1;
        match &done.result {
            Ok((outcome, _)) if outcome.committed => {
                if let Some(version) = outcome.commit_version {
                    self.acked_updates += 1;
                    if version.0 <= self.last_version {
                        self.order_violations += 1;
                    }
                    self.last_version = version.0;
                }
                self.spans.push(Span {
                    template: done.template,
                    start: done.start,
                    end: done.end,
                    update: outcome.commit_version.is_some(),
                });
            }
            Ok((outcome, _)) => {
                self.aborts_told += 1;
                self.fail(
                    outcome
                        .abort_reason
                        .clone()
                        .unwrap_or_else(|| "aborted".into()),
                );
            }
            Err(e) => self.fail(e.to_string()),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(why);
        }
    }
}

/// A connection to the deployment.
pub enum Conn {
    /// `RemoteSession` behind the workloads crate's `RemoteDriver`: what
    /// an application uses, one transaction at a time.
    Session(Box<RemoteDriver>),
    /// The harness's windowed wire client.
    Wire(WireClient),
}

impl Conn {
    /// Connects connection number `index` and prepares the workload's
    /// templates on it.
    pub fn open(addr: &str, spec: &Spec, index: usize) -> Result<Conn> {
        if spec.window == 1 {
            let mut driver = RemoteDriver::new(RemoteSession::connect_with(addr, &no_retry())?);
            driver.register(&spec.workload.templates())?;
            Ok(Conn::Session(Box::new(driver)))
        } else {
            let mut client = WireClient::connect(addr, 0xE2E0_0000 + index as u64)?;
            client.register(spec.workload.as_ref())?;
            Ok(Conn::Wire(client))
        }
    }

    /// Runs one transaction, waits for its reply and records it in `log`.
    pub fn run_logged(&mut self, txn: Txn, log: &mut ClientLog) -> Result<TxnResult> {
        let template = txn.0;
        let start = Instant::now();
        let result = match self {
            Conn::Session(driver) => driver.run(template, txn.1),
            Conn::Wire(client) => client.run(txn),
        };
        let done = Done {
            template,
            start,
            end: Instant::now(),
            result,
        };
        log.record(&done);
        done.result
    }

    /// Drives the connection in a closed loop until `until`: `window`
    /// requests outstanding, the next one sent when a reply arrives.
    pub fn closed_loop(
        &mut self,
        window: usize,
        until: Instant,
        next: &mut dyn FnMut() -> Txn,
        log: &mut ClientLog,
    ) {
        match self {
            Conn::Session(_) => {
                while Instant::now() < until {
                    let _ = self.run_logged(next(), log);
                }
            }
            Conn::Wire(client) => {
                if let Err(e) =
                    client.closed_loop(window, until, next, &mut |done| log.record(&done))
                {
                    // The requests still outstanding are lost with it.
                    log.attempted += 1;
                    log.fail(format!("transport: {e}"));
                }
            }
        }
    }
}
