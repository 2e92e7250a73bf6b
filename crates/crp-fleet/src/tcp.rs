//! The TCP worker transport: a listening socket serving one fleet
//! conversation per accepted connection.
//!
//! This is the loopback/remote half of the subsystem: start
//! `crp_experiments worker --listen host:port` on any machine, point a
//! dispatcher at `host:port` via the fleet manifest, and the same framed
//! protocol that runs over subprocess stdio runs over the socket.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use crate::worker::{serve_with_store, JobHandler, ScenarioStore, ServeOptions};
use crate::FleetError;

/// Dials a dispatcher's worker-registration listener (see
/// [`crate::Dispatcher::listen_for_workers`]) and serves jobs over the
/// connection until the dispatcher says shutdown or hangs up — the
/// elastic-membership worker half.  Because a worker speaks hello first,
/// the dialed-out conversation is byte-identical to an accepted one.
///
/// Returns the number of jobs served once the dispatcher disconnects.
///
/// # Errors
///
/// [`FleetError::Connect`] when the dispatcher cannot be reached; any
/// transport error the serve loop hits afterwards.
pub fn join_fleet(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    handler: JobHandler<'_>,
    options: &ServeOptions,
) -> Result<usize, FleetError> {
    let store = ScenarioStore::new();
    join_fleet_with_store(addr, handler, options, &store)
}

/// [`join_fleet`] with a caller-owned [`ScenarioStore`], so a worker
/// that re-joins keeps the blobs it already received.
///
/// # Errors
///
/// As [`join_fleet`].
pub fn join_fleet_with_store(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    handler: JobHandler<'_>,
    options: &ServeOptions,
    store: &ScenarioStore,
) -> Result<usize, FleetError> {
    let stream = TcpStream::connect(&addr).map_err(|e| FleetError::Connect {
        endpoint: format!("dispatcher {addr:?}"),
        reason: e.to_string(),
    })?;
    stream.set_nodelay(true).ok();
    let mut reader = std::io::BufReader::new(stream.try_clone().map_err(FleetError::from)?);
    let mut writer = stream;
    serve_with_store(&mut reader, &mut writer, handler, options, store)
}

/// A bound TCP worker: accepts dispatcher connections and serves each on
/// its own thread (several dispatchers — or several connections of one
/// dispatcher — can be in flight at once).
pub struct TcpWorker {
    listener: TcpListener,
}

impl TcpWorker {
    /// Binds the listener.  `addr` may use port 0 to let the OS pick
    /// (read the result back with [`TcpWorker::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::Connect`] when the address cannot be resolved or
    /// bound.
    pub fn bind(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, FleetError> {
        let listener = TcpListener::bind(&addr).map_err(|e| FleetError::Connect {
            endpoint: format!("listener {addr:?}"),
            reason: e.to_string(),
        })?;
        Ok(Self { listener })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, FleetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts and serves connections until the process is killed, with
    /// one process-wide [`ScenarioStore`] shared by every connection —
    /// a blob shipped by one dispatcher run is still present when the
    /// next run reconnects and asks via `scenario-have`.  Per-connection
    /// errors are reported on stderr and do not stop the accept loop —
    /// one misbehaving dispatcher must not take the worker down for
    /// everyone else.
    pub fn serve_forever_with_store(
        &self,
        handler: JobHandler<'_>,
        options: &ServeOptions,
        store: &ScenarioStore,
    ) -> ! {
        std::thread::scope(|scope| loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    scope.spawn(move || {
                        stream.set_nodelay(true).ok();
                        let mut reader = std::io::BufReader::new(
                            stream.try_clone().expect("accepted sockets clone"),
                        );
                        let mut writer = stream;
                        match serve_with_store(&mut reader, &mut writer, handler, options, store) {
                            Ok(served) => {
                                eprintln!("fleet worker: {peer} disconnected after {served} jobs");
                            }
                            Err(err) => eprintln!("fleet worker: connection {peer}: {err}"),
                        }
                    });
                }
                Err(err) => eprintln!("fleet worker: accept failed: {err}"),
            }
        })
    }

    /// [`TcpWorker::serve_forever_with_store`] with a fresh process-wide
    /// store.
    pub fn serve_forever(&self, handler: JobHandler<'_>, options: &ServeOptions) -> ! {
        let store = ScenarioStore::new();
        self.serve_forever_with_store(handler, options, &store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{DispatchTuning, WorkerEndpoint};
    use crate::Dispatcher;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn echo(payload: &str) -> Result<String, String> {
        Ok(format!("echo:{payload}"))
    }

    /// Binds a loopback worker on an ephemeral port and serves it from a
    /// detached thread for the rest of the test process's life.
    fn spawn_worker(handler: JobHandler<'static>) -> SocketAddr {
        let worker = TcpWorker::bind("127.0.0.1:0").unwrap();
        let addr = worker.local_addr().unwrap();
        std::thread::spawn(move || worker.serve_forever(handler, &ServeOptions::default()));
        addr
    }

    #[test]
    fn tcp_round_trip_through_a_real_socket() {
        let addr = spawn_worker(&echo);
        let dispatcher = Dispatcher::new(vec![WorkerEndpoint::tcp(addr.to_string())]);
        let payloads: Vec<String> = (0..3).map(|id| format!("job-{id}")).collect();
        let answers = dispatcher.dispatch(&payloads, &|_| {}).unwrap();
        let expected: Vec<String> = (0..3).map(|id| format!("echo:job-{id}")).collect();
        assert_eq!(answers, expected);
    }

    #[test]
    fn two_connections_are_served_concurrently() {
        // Each job waits until both jobs are executing.  Two endpoints
        // at the same address hold one job each, so the batch only
        // answers if the worker serves both connections at once.
        fn rendezvous(payload: &str) -> Result<String, String> {
            static ARRIVED: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());
            let (count, all_here) = &ARRIVED;
            let mut count = count.lock().unwrap();
            *count += 1;
            all_here.notify_all();
            let (count, _) = all_here
                .wait_timeout_while(count, Duration::from_secs(10), |count| *count < 2)
                .unwrap();
            if *count < 2 {
                return Err("the worker served the connections one at a time".to_string());
            }
            Ok(format!("echo:{payload}"))
        }
        let addr = spawn_worker(&rendezvous).to_string();
        let dispatcher = Dispatcher::new(vec![
            WorkerEndpoint::tcp(addr.clone()),
            WorkerEndpoint::tcp(addr),
        ]);
        let answers = dispatcher
            .dispatch(&["x".to_string(), "y".to_string()], &|_| {})
            .unwrap();
        assert_eq!(answers, vec!["echo:x".to_string(), "echo:y".to_string()]);
    }

    #[test]
    fn dialing_a_dead_port_is_a_typed_connect_error() {
        // Bind-then-drop guarantees the port is closed.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let endpoint = WorkerEndpoint::tcp(format!("127.0.0.1:{port}"));
        assert!(matches!(
            crate::event_loop::LoopConn::from_endpoint(&endpoint, &DispatchTuning::default()),
            Err(FleetError::Connect { .. })
        ));
    }
}
