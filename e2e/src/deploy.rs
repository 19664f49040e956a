//! The deployment under test, booted in this process: a 3-replica
//! `Cluster` behind a `NetServer` on loopback TCP and, for the split
//! workload, a `CertifierServer` reached through `RemoteCertifierLink`.
//!
//! Flush policy: the certifier's log is in memory in every workload. With
//! `wal_dir` set, the sandbox disk's fsync alone moved `micro_update` by
//! 13-14 % between identical runs, which no 10 % bound survives; the
//! durable path is measured per layer instead.

use crate::client::{ClientLog, Conn};
use crate::workloads::{Spec, CONNECTIONS};
use bargain_cluster::{Cluster, ClusterConfig, ClusterStats};
use bargain_common::{ClientId, ConsistencyMode, Result};
use bargain_net::{CertifierServer, CertifierServerConfig, NetServer, RemoteCertifierLink};
use bargain_workloads::ClientContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The servers of a deployment.
pub struct Servers {
    server: NetServer,
    certifier: Option<CertifierServer>,
}

/// The clients of a deployment, index-aligned: connection `c`, its
/// generator state, and what it has been told since boot.
#[derive(Default)]
pub struct Clients {
    /// The connections, templates prepared.
    pub conns: Vec<Conn>,
    /// Each connection's generator state.
    pub ctxs: Vec<ClientContext>,
    /// What each connection has been told since boot.
    pub logs: Vec<ClientLog>,
}

impl Clients {
    /// Runs `work` for every connection on a thread of its own, named
    /// `e2e-client-N`, while `meanwhile` runs on this one; returns what
    /// each returned.
    pub fn on_threads<R: Send, M>(
        &mut self,
        work: impl Fn(usize, &mut Conn, &mut ClientContext, &mut ClientLog) -> R + Sync,
        meanwhile: impl FnOnce() -> M,
    ) -> (Vec<R>, M) {
        let work = &work;
        std::thread::scope(|scope| {
            let each = self
                .conns
                .iter_mut()
                .zip(&mut self.ctxs)
                .zip(&mut self.logs);
            let threads: Vec<_> = each
                .enumerate()
                .map(|(c, ((conn, ctx), log))| {
                    std::thread::Builder::new()
                        .name(format!("e2e-client-{c}"))
                        .spawn_scoped(scope, move || work(c, conn, ctx, log))
                        .expect("client thread starts")
                })
                .collect();
            let meanwhile = meanwhile();
            let results = threads
                .into_iter()
                .map(|t| t.join().expect("client thread finishes"))
                .collect();
            (results, meanwhile)
        })
    }
}

/// A booted deployment with its clients connected.
pub struct Deployment {
    /// The servers, for stats and stop.
    pub servers: Servers,
    /// The clients.
    pub clients: Clients,
    /// How long the boot took: from just before the cluster started until
    /// every connection had prepared the templates and committed one
    /// transaction.
    pub setup: Duration,
}

impl Deployment {
    /// Boots `spec`'s deployment in consistency mode `mode` and connects
    /// its clients, whose generators are seeded from `seed`.
    pub fn boot(spec: &Spec, mode: ConsistencyMode, seed: u64) -> Result<Deployment> {
        let started = Instant::now();
        let config = ClusterConfig {
            replicas: 3,
            mode,
            shards: 1,
            parallel_certifier: false,
            wal_dir: None,
            ..ClusterConfig::default()
        };
        let workload = Arc::clone(&spec.workload);
        let setup = move |engine: &mut _| workload.install(engine);
        let (cluster, certifier) = if spec.split_certifier {
            let certifier =
                CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default())?;
            let link = RemoteCertifierLink::connect(&certifier.local_addr().to_string())?;
            let cluster = Cluster::start_with_certifier_link(config, setup, Box::new(link));
            (cluster, Some(certifier))
        } else {
            (Cluster::start_with_setup(config, setup), None)
        };
        let server = NetServer::start("127.0.0.1:0", cluster)?;
        let addr = server.local_addr().to_string();

        let mut clients = Clients::default();
        for c in 0..CONNECTIONS {
            let mut conn = Conn::open(&addr, spec, c)?;
            let mut ctx = ClientContext::new(seed, ClientId(c as u64));
            let mut log = ClientLog::default();
            conn.run_logged(spec.next(&mut ctx, c), &mut log)?;
            clients.conns.push(conn);
            clients.ctxs.push(ctx);
            clients.logs.push(log);
        }
        Ok(Deployment {
            servers: Servers { server, certifier },
            clients,
            setup: started.elapsed(),
        })
    }

    /// Closes the connections, stops the servers and joins their threads.
    /// Returns the clients' logs.
    pub fn stop(self) -> Vec<ClientLog> {
        drop(self.clients.conns);
        self.servers.server.stop();
        if let Some(certifier) = self.servers.certifier {
            certifier.stop();
        }
        self.clients.logs
    }
}

impl Servers {
    /// The cluster's counters, read in-process.
    pub fn stats(&self) -> Result<ClusterStats> {
        self.server.cluster().stats()
    }
}
